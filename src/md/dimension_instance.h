#ifndef MDQA_MD_DIMENSION_INSTANCE_H_
#define MDQA_MD_DIMENSION_INSTANCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "md/dimension_schema.h"

namespace mdqa::md {

/// The instance of an HM dimension: members assigned to categories plus a
/// child–parent relation between members that parallels the schema's
/// category edges (`W1 < Standard < H1` in the paper's Hospital
/// dimension). Each member belongs to exactly one category.
class DimensionInstance {
 public:
  /// The instance keeps a copy of the schema so it can validate edges.
  explicit DimensionInstance(DimensionSchema schema)
      : schema_(std::move(schema)) {}

  const DimensionSchema& schema() const { return schema_; }

  Status AddMember(const std::string& category, const std::string& member);

  /// Declares `child_member < parent_member`; their categories must be
  /// connected by a schema edge in the same direction.
  Status AddChildParent(const std::string& child_member,
                        const std::string& parent_member);

  bool HasMember(const std::string& member) const {
    return member_category_.count(member) > 0;
  }

  /// Category of `member`, or NotFound.
  Result<std::string> CategoryOf(const std::string& member) const;

  /// Members of `category`, in insertion order.
  std::vector<std::string> Members(const std::string& category) const;

  /// Immediate parents / children of a member.
  std::vector<std::string> ParentsOf(const std::string& member) const;
  std::vector<std::string> ChildrenOf(const std::string& member) const;

  /// Members of `to_category` reachable upward from `member` (transitive;
  /// `to_category` must be an ancestor of the member's category, or the
  /// same, in which case the result is {member}).
  Result<std::vector<std::string>> RollUp(const std::string& member,
                                          const std::string& to_category) const;

  /// Members of `to_category` reachable downward from `member`.
  Result<std::vector<std::string>> DrillDown(
      const std::string& member, const std::string& to_category) const;

  /// HM strictness: every member rolls up to at most one member of every
  /// ancestor category. Returns a witness message on the first violation.
  Status CheckStrict() const;

  /// HM homogeneity (completeness of roll-up): every member has at least
  /// one parent in every parent category of its own category.
  Status CheckHomogeneous() const;

 private:
  DimensionSchema schema_;
  std::unordered_map<std::string, std::string> member_category_;
  std::unordered_map<std::string, std::vector<std::string>> members_by_cat_;
  std::unordered_map<std::string, std::vector<std::string>> parents_;
  std::unordered_map<std::string, std::vector<std::string>> children_;
};

}  // namespace mdqa::md

#endif  // MDQA_MD_DIMENSION_INSTANCE_H_
