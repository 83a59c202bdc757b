#include "datalog/parser.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <optional>
#include <vector>

#include "base/string_util.h"

namespace mdqa::datalog {

namespace {

enum class TokKind {
  kIdent,    // bare identifier (variable or constant by capitalization)
  kString,   // quoted string constant
  kNumber,   // numeric constant
  kLParen,
  kRParen,
  kComma,    // ',' and ';' both map here
  kPeriod,
  kArrow,    // ':-' or '<-'
  kBang,     // '!' (constraint head)
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  SourceSpan span;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Position of a lexical error, for ParseReport (unset unless Tokenize
  /// returned an error).
  SourceSpan error_span() const { return error_span_; }

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= text_.size()) break;
      char c = text_[pos_];
      if (c == '(') {
        out.push_back(Make(TokKind::kLParen, "("));
      } else if (c == ')') {
        out.push_back(Make(TokKind::kRParen, ")"));
      } else if (c == ',' || c == ';') {
        out.push_back(Make(TokKind::kComma, ","));
      } else if (c == '.') {
        out.push_back(Make(TokKind::kPeriod, "."));
      } else if (c == '!') {
        if (Peek(1) == '=') {
          out.push_back(Make(TokKind::kNe, "!=", 2));
        } else {
          out.push_back(Make(TokKind::kBang, "!"));
        }
      } else if (c == ':' && Peek(1) == '-') {
        out.push_back(Make(TokKind::kArrow, ":-", 2));
      } else if (c == '<' && Peek(1) == '-') {
        out.push_back(Make(TokKind::kArrow, "<-", 2));
      } else if (c == '<') {
        if (Peek(1) == '=') {
          out.push_back(Make(TokKind::kLe, "<=", 2));
        } else {
          out.push_back(Make(TokKind::kLt, "<"));
        }
      } else if (c == '>') {
        if (Peek(1) == '=') {
          out.push_back(Make(TokKind::kGe, ">=", 2));
        } else {
          out.push_back(Make(TokKind::kGt, ">"));
        }
      } else if (c == '=') {
        out.push_back(Make(TokKind::kEq, "="));
      } else if (c == '"') {
        MDQA_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 ((c == '-' || c == '+') &&
                  std::isdigit(static_cast<unsigned char>(Peek(1))))) {
        out.push_back(LexNumber());
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
      } else {
        error_span_ = Here();
        return Status::InvalidArgument("unexpected character '" +
                                       std::string(1, c) + "' (" +
                                       error_span_.ToString() + ")");
      }
    }
    out.push_back(Token{TokKind::kEnd, "", Here()});
    return out;
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  SourceSpan Here() const {
    return SourceSpan{line_, static_cast<uint32_t>(pos_ - line_start_) + 1};
  }

  Token Make(TokKind kind, std::string text, size_t advance = 1) {
    SourceSpan span = Here();
    pos_ += advance;
    return Token{kind, std::move(text), span};
  }

  void NewLine() {
    ++line_;
    line_start_ = pos_ + 1;
  }

  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        NewLine();
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' || c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Result<Token> LexString() {
    SourceSpan start = Here();
    ++pos_;  // opening quote
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;
        c = text_[pos_];
      }
      if (c == '\n') NewLine();
      s.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      error_span_ = start;
      return Status::InvalidArgument("unterminated string starting at " +
                                     start.ToString());
    }
    ++pos_;  // closing quote
    return Token{TokKind::kString, std::move(s), start};
  }

  Token LexNumber() {
    SourceSpan start = Here();
    size_t begin = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      // A '.' ends the number if not followed by a digit (statement period).
      if (text_[pos_] == '.' &&
          !(pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        break;
      }
      ++pos_;
    }
    return Token{TokKind::kNumber,
                 std::string(text_.substr(begin, pos_ - begin)), start};
  }

  Token LexIdent() {
    SourceSpan start = Here();
    size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokKind::kIdent,
                 std::string(text_.substr(begin, pos_ - begin)), start};
  }

  std::string_view text_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  size_t line_start_ = 0;  // offset of the first character of line_
  SourceSpan error_span_;
};

bool IsVariableName(const std::string& name) {
  return !name.empty() &&
         (std::isupper(static_cast<unsigned char>(name[0])) || name[0] == '_');
}

class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, Vocabulary* vocab, ParseReport* report)
      : tokens_(std::move(tokens)), vocab_(vocab), report_(report) {}

  Status ParseStatements(Program* program) {
    while (Cur().kind != TokKind::kEnd) {
      MDQA_RETURN_IF_ERROR(ParseStatement(program));
    }
    return Status::Ok();
  }

  Result<ConjunctiveQuery> ParseSingleQuery() {
    ConjunctiveQuery q;
    if (Cur().kind != TokKind::kIdent) {
      return Fail("query must start with a name");
    }
    q.name = Cur().text;
    Advance();
    MDQA_RETURN_IF_ERROR(Expect(TokKind::kLParen, "query head '('"));
    if (Cur().kind != TokKind::kRParen) {
      while (true) {
        MDQA_ASSIGN_OR_RETURN(Term t, ParseTerm());
        q.answer.push_back(t);
        if (Cur().kind != TokKind::kComma) break;
        Advance();
      }
    }
    MDQA_RETURN_IF_ERROR(Expect(TokKind::kRParen, "query head ')'"));
    MDQA_RETURN_IF_ERROR(Expect(TokKind::kArrow, "':-' after query head"));
    MDQA_RETURN_IF_ERROR(ParseBody(&q.body, &q.negated, &q.comparisons));
    if (Cur().kind == TokKind::kPeriod) Advance();
    if (Cur().kind != TokKind::kEnd) {
      return Fail("trailing input after query");
    }
    MDQA_RETURN_IF_ERROR(q.Validate());
    return q;
  }

  Result<Atom> ParseSingleGroundAtom() {
    MDQA_ASSIGN_OR_RETURN(Atom a, ParseAtom());
    if (Cur().kind == TokKind::kPeriod) Advance();
    if (Cur().kind != TokKind::kEnd) {
      return Fail("trailing input after atom");
    }
    if (!a.IsGround()) {
      return Status::InvalidArgument("atom is not ground: " +
                                     vocab_->AtomToString(a));
    }
    return a;
  }

 private:
  const Token& Cur() const { return tokens_[idx_]; }
  const Token& Next() const {
    return tokens_[idx_ + 1 < tokens_.size() ? idx_ + 1 : idx_];
  }
  void Advance() {
    if (idx_ + 1 < tokens_.size()) ++idx_;
  }

  void Record(ParseReport::ErrorKind kind, SourceSpan span) {
    if (report_ != nullptr &&
        report_->error_kind == ParseReport::ErrorKind::kNone) {
      report_->error_kind = kind;
      report_->error_span = span;
    }
  }

  /// Builds a syntax-error status pointing at the current token, and
  /// records its location in the report.
  Status Fail(const std::string& what) { return FailAt(Cur(), what); }

  Status FailAt(const Token& t, const std::string& what) {
    Record(ParseReport::ErrorKind::kSyntax, t.span);
    return Status::InvalidArgument(what + " (" + t.span.ToString() +
                                   ", near '" + t.text + "')");
  }

  Status Expect(TokKind kind, const std::string& what) {
    if (Cur().kind != kind) {
      return Fail("expected " + what);
    }
    Advance();
    return Status::Ok();
  }

  Result<Term> ParseTerm() {
    const Token& t = Cur();
    switch (t.kind) {
      case TokKind::kString:
        Advance();
        return vocab_->Const(Value::Str(t.text));
      case TokKind::kNumber:
        Advance();
        return vocab_->Const(Value::FromText(t.text));
      case TokKind::kIdent: {
        Advance();
        if (t.text == "_") {
          return vocab_->FreshVariable();
        }
        // `_n<k>` is the reserved spelling of labeled null ⊥_k (what
        // TermToString prints), so instances round-trip through text.
        if (t.text.size() > 2 && t.text[0] == '_' && t.text[1] == 'n') {
          bool digits = true;
          for (size_t i = 2; i < t.text.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(t.text[i]))) {
              digits = false;
              break;
            }
          }
          if (digits) {
            // The id must leave room above it for the FreshNull() ids
            // that ReserveNullsThrough sets aside.
            constexpr uint32_t kMaxId =
                std::numeric_limits<uint32_t>::max() - 1;
            uint32_t id = 0;
            const char* end = t.text.data() + t.text.size();
            const std::from_chars_result r =
                std::from_chars(t.text.data() + 2, end, id);
            if (r.ec != std::errc() || id > kMaxId) {
              return FailAt(t, "labeled null id out of range (at most " +
                                   std::to_string(kMaxId) + ")");
            }
            vocab_->ReserveNullsThrough(id);
            return Term::Null(id);
          }
        }
        if (IsVariableName(t.text)) {
          return vocab_->Var(t.text);
        }
        return vocab_->Const(Value::Str(t.text));
      }
      default:
        return Fail("expected a term");
    }
  }

  Result<Atom> ParseAtom() {
    if (Cur().kind != TokKind::kIdent) {
      return Fail("expected a predicate name");
    }
    std::string pred_name = Cur().text;
    SourceSpan name_span = Cur().span;
    Advance();
    MDQA_RETURN_IF_ERROR(
        Expect(TokKind::kLParen, "'(' after predicate " + pred_name));
    std::vector<Term> terms;
    if (Cur().kind != TokKind::kRParen) {
      while (true) {
        MDQA_ASSIGN_OR_RETURN(Term t, ParseTerm());
        terms.push_back(t);
        if (Cur().kind != TokKind::kComma) break;
        Advance();
      }
    }
    MDQA_RETURN_IF_ERROR(
        Expect(TokKind::kRParen, "')' closing " + pred_name));
    Result<uint32_t> pred = vocab_->InternPredicate(pred_name, terms.size());
    if (!pred.ok()) {
      Record(ParseReport::ErrorKind::kArity, name_span);
      return Status(pred.status().code(), pred.status().message() + " (" +
                                              name_span.ToString() + ")");
    }
    Atom atom(*pred, std::move(terms));
    atom.span = name_span;
    return atom;
  }

  static std::optional<CmpOp> AsCmpOp(TokKind kind) {
    switch (kind) {
      case TokKind::kEq:
        return CmpOp::kEq;
      case TokKind::kNe:
        return CmpOp::kNe;
      case TokKind::kLt:
        return CmpOp::kLt;
      case TokKind::kLe:
        return CmpOp::kLe;
      case TokKind::kGt:
        return CmpOp::kGt;
      case TokKind::kGe:
        return CmpOp::kGe;
      default:
        return std::nullopt;
    }
  }

  Status ParseBody(std::vector<Atom>* atoms, std::vector<Atom>* negated,
                   std::vector<Comparison>* comparisons) {
    while (true) {
      // A body literal is `Pred(...)`, `not Pred(...)`, or `term op term`.
      if (Cur().kind == TokKind::kIdent && Cur().text == "not" &&
          Next().kind == TokKind::kIdent) {
        Advance();  // 'not'
        MDQA_ASSIGN_OR_RETURN(Atom a, ParseAtom());
        negated->push_back(std::move(a));
      } else if (Cur().kind == TokKind::kIdent &&
                 Next().kind == TokKind::kLParen) {
        MDQA_ASSIGN_OR_RETURN(Atom a, ParseAtom());
        atoms->push_back(std::move(a));
      } else {
        MDQA_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
        std::optional<CmpOp> op = AsCmpOp(Cur().kind);
        if (!op.has_value()) {
          return Fail("expected a comparison operator");
        }
        Advance();
        MDQA_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
        comparisons->push_back(Comparison{*op, lhs, rhs});
      }
      if (Cur().kind == TokKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (atoms->empty()) {
      return Fail("body must contain at least one relational atom");
    }
    return Status::Ok();
  }

  /// Hands a completed rule to the program: duplicates of an existing rule
  /// are dropped (recorded as a ParseIssue), and validation failures get
  /// their location recorded before the status propagates.
  Status AddRuleChecked(Program* program, Rule rule) {
    for (const Rule& existing : program->rules()) {
      if (existing.SameAs(rule)) {
        if (report_ != nullptr) {
          ParseIssue issue;
          issue.kind = ParseIssue::Kind::kDuplicateRule;
          issue.message = "duplicate rule dropped (identical to an earlier "
                          "statement): " +
                          vocab_->RuleToString(rule);
          issue.span = rule.span;
          report_->issues.push_back(std::move(issue));
        }
        return Status::Ok();
      }
    }
    SourceSpan span = rule.span;
    Status s = program->AddRule(std::move(rule));
    if (!s.ok()) Record(ParseReport::ErrorKind::kValidation, span);
    return s;
  }

  // One statement: fact, TGD, EGD, or constraint, ending with '.'.
  Status ParseStatement(Program* program) {
    SourceSpan start = Cur().span;

    // Constraint: `! :- body.`
    if (Cur().kind == TokKind::kBang) {
      Advance();
      MDQA_RETURN_IF_ERROR(Expect(TokKind::kArrow, "':-' after '!'"));
      Rule r;
      r.kind = RuleKind::kConstraint;
      r.span = start;
      MDQA_RETURN_IF_ERROR(ParseBody(&r.body, &r.negated, &r.comparisons));
      MDQA_RETURN_IF_ERROR(Expect(TokKind::kPeriod, "'.' ending constraint"));
      return AddRuleChecked(program, std::move(r));
    }

    // EGD: `X = Y :- body.` — head is `term = term` then arrow.
    if ((Cur().kind == TokKind::kIdent || Cur().kind == TokKind::kString ||
         Cur().kind == TokKind::kNumber) &&
        Next().kind == TokKind::kEq) {
      MDQA_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
      Advance();  // '='
      MDQA_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      MDQA_RETURN_IF_ERROR(Expect(TokKind::kArrow, "':-' after EGD head"));
      Rule r;
      r.kind = RuleKind::kEgd;
      r.egd_lhs = lhs;
      r.egd_rhs = rhs;
      r.span = start;
      MDQA_RETURN_IF_ERROR(ParseBody(&r.body, &r.negated, &r.comparisons));
      MDQA_RETURN_IF_ERROR(Expect(TokKind::kPeriod, "'.' ending EGD"));
      return AddRuleChecked(program, std::move(r));
    }

    // Fact or TGD: one or more head atoms.
    std::vector<Atom> head;
    while (true) {
      MDQA_ASSIGN_OR_RETURN(Atom a, ParseAtom());
      head.push_back(std::move(a));
      if (Cur().kind == TokKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (Cur().kind == TokKind::kPeriod) {
      Advance();
      for (Atom& a : head) {
        MDQA_RETURN_IF_ERROR(program->AddFact(std::move(a)));
      }
      return Status::Ok();
    }
    MDQA_RETURN_IF_ERROR(Expect(TokKind::kArrow, "':-' or '.' after head"));
    Rule r;
    r.kind = RuleKind::kTgd;
    r.head = std::move(head);
    r.span = start;
    MDQA_RETURN_IF_ERROR(ParseBody(&r.body, &r.negated, &r.comparisons));
    MDQA_RETURN_IF_ERROR(Expect(TokKind::kPeriod, "'.' ending rule"));
    return AddRuleChecked(program, std::move(r));
  }

  std::vector<Token> tokens_;
  size_t idx_ = 0;
  Vocabulary* vocab_;
  ParseReport* report_;
};

Result<std::vector<Token>> TokenizeFor(std::string_view text,
                                       ParseReport* report) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok() && report != nullptr &&
      report->error_kind == ParseReport::ErrorKind::kNone) {
    report->error_kind = ParseReport::ErrorKind::kSyntax;
    report->error_span = lexer.error_span();
  }
  return tokens;
}

}  // namespace

Result<Program> Parser::ParseProgram(std::string_view text) {
  return ParseProgram(text, nullptr);
}

Result<Program> Parser::ParseProgram(std::string_view text,
                                     ParseReport* report) {
  Program program;
  MDQA_RETURN_IF_ERROR(ParseInto(text, &program, report));
  return program;
}

Status Parser::ParseInto(std::string_view text, Program* program) {
  return ParseInto(text, program, nullptr);
}

Status Parser::ParseInto(std::string_view text, Program* program,
                         ParseReport* report) {
  MDQA_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeFor(text, report));
  ParserImpl impl(std::move(tokens), program->mutable_vocab(), report);
  return impl.ParseStatements(program);
}

Result<ConjunctiveQuery> Parser::ParseQuery(std::string_view text,
                                            Vocabulary* vocab) {
  MDQA_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeFor(text, nullptr));
  ParserImpl impl(std::move(tokens), vocab, nullptr);
  return impl.ParseSingleQuery();
}

Result<Atom> Parser::ParseGroundAtom(std::string_view text,
                                     Vocabulary* vocab) {
  MDQA_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeFor(text, nullptr));
  ParserImpl impl(std::move(tokens), vocab, nullptr);
  return impl.ParseSingleGroundAtom();
}

}  // namespace mdqa::datalog
