# Runs one experiment binary and diffs its stdout byte for byte against the
# recorded golden file:
#
#   cmake -DBIN=<binary> -DGOLDEN=<golden.txt> -DOUT=<stdout copy> \
#         -P bench/check_golden.cmake
#
# The goldens in bench/golden/ are the E1–E15 reproduction output; any
# change to a reported number must re-record them deliberately.
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
