# Golden check of a program's whole stdout: runs COMMAND with ARG and
# fails unless the output equals the file GOLDEN byte for byte, printing
# the first line that differs.
#
#   cmake -DCOMMAND=<exe> -DARG=<arg> -DGOLDEN=<file> -P golden_compare.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${COMMAND}" "${ARG}"
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if("${actual}" STREQUAL "${expected}")
  return()
endif()

set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  if(NOT "${expected_line}" STREQUAL "${actual_line}" OR
     expected_end EQUAL -1 OR actual_end EQUAL -1)
    break()
  endif()
  math(EXPR expected_end "${expected_end} + 1")
  math(EXPR actual_end "${actual_end} + 1")
  string(SUBSTRING "${expected}" ${expected_end} -1 expected)
  string(SUBSTRING "${actual}" ${actual_end} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
message(FATAL_ERROR "stdout differs from ${GOLDEN} at line ${line}"
        " (or in what follows it):\n"
        "  expected: ${expected_line}\n"
        "  actual:   ${actual_line}")
