# Runs one example binary and compares its stdout with a golden file.
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<golden.txt> -P check_golden.cmake
execute_process(COMMAND ${EXAMPLE} OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${EXPECTED}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
