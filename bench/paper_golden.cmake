# Checks the paper driver's output (the ctest paper_golden):
#   1. byte for byte against the golden file.  On a mismatch the output is
#      written to ACTUAL, so accepting a deliberate change is a `cp`;
#   2. every fenced `text` block of DOC must appear in it word for word.
# Blocks are found by string positions, not CMake lists, because the
# output contains ';'.
#
#   cmake -DDRIVER=<bench_paper> -DGOLDEN=<paper.golden.txt>
#         -DACTUAL=<paper.actual> -DDOC=<EXPERIMENTS.md> -P paper_golden.cmake
cmake_minimum_required(VERSION 3.20)

execute_process(COMMAND "${DRIVER}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${rc}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "the paper output differs from ${GOLDEN}.\n"
                      "It is in ${ACTUAL}; if the change is meant, "
                      "cp ${ACTUAL} ${GOLDEN}")
endif()

file(READ "${DOC}" rest)
set(fence "```text\n")
string(LENGTH "${fence}" fence_length)
set(blocks 0)
while(TRUE)
  string(FIND "${rest}" "${fence}" start)
  if(start EQUAL -1)
    break()
  endif()
  math(EXPR start "${start} + ${fence_length}")
  string(SUBSTRING "${rest}" ${start} -1 rest)
  string(FIND "${rest}" "\n```" end)
  if(end EQUAL -1)
    message(FATAL_ERROR "${DOC}: a text block is not closed")
  endif()
  math(EXPR end "${end} + 1")
  string(SUBSTRING "${rest}" 0 ${end} block)
  string(SUBSTRING "${rest}" ${end} -1 rest)
  math(EXPR blocks "${blocks} + 1")
  string(FIND "${actual}" "${block}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${DOC}: text block ${blocks} is not in the paper "
                        "output:\n${block}")
  endif()
endwhile()
if(blocks EQUAL 0)
  message(FATAL_ERROR "${DOC} quotes no text block of the paper output")
endif()
