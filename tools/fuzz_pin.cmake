# Pins an escra-fuzz sweep to its exact summary line.
#
# Runs escra-fuzz with ARGS (a ;-list) and fails unless it exits 0 and its
# stdout holds LINE as one whole line. Both checks live here because a bare
# PASS_REGULAR_EXPRESSION would replace ctest's exit-code check, and the
# fuzzer's violation and non-vacuity failures exit non-zero. Invoked via
# `cmake -DFUZZ=<binary> -DARGS=... -DLINE=... -P` from a ctest entry.
if(NOT DEFINED FUZZ OR NOT DEFINED ARGS OR NOT DEFINED LINE)
  message(FATAL_ERROR "fuzz_pin: pass -DFUZZ=, -DARGS= and -DLINE=")
endif()
list(JOIN ARGS " " shown)

execute_process(COMMAND ${FUZZ} ${ARGS}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fuzz_pin: escra-fuzz ${shown} failed (rc ${rc})\n${out}")
endif()
string(FIND "\n${out}" "\n${LINE}\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "fuzz_pin: escra-fuzz ${shown} moved off its pinned "
                      "summary\n--- want ---\n${LINE}\n--- got ---\n${out}")
endif()
message(STATUS "fuzz_pin: ${shown} — ${LINE}")
