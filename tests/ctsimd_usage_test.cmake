# ctsimd usage contract: a malformed or out-of-range numeric flag must
# exit 2 (usage error) instead of silently serving with a truncated or
# default value (`--workers abc` once meant one worker per hardware
# thread). Argument parsing finishes before the delay library is
# loaded, so none of these cases characterizes anything.
#
#   cmake -DDAEMON=<path to ctsimd> -P ctsimd_usage_test.cmake
if(NOT DAEMON)
  message(FATAL_ERROR "pass -DDAEMON=<path to ctsimd>")
endif()

set(cases
  "--workers|abc"
  "--workers|2.5"
  "--workers|-1"
  "--queue|2.5"
  "--queue|0"
  "--memory-budget-mb|12x"
  "--memory-budget-mb|nan"
  "--memory-budget-mb|-5"
  "--request-token-mb|fast"
  "--request-token-mb|-1"
  "--no-such-flag")
foreach(case IN LISTS cases)
  # A quoted "a;b" would be split by the list itself, so pairs use '|'.
  string(REPLACE "|" ";" args "${case}")
  # A regression would start serving; the timeout bounds that failure.
  execute_process(COMMAND ${DAEMON} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "ctsimd ${case}: exit ${rc}, want 2\n${err}")
  endif()
endforeach()
