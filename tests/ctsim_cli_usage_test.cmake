# ctsim_cli usage contract: a typo'd enum value or a non-numeric
# numeric flag must exit 2 (usage error) instead of silently running
# the defaults. Argument parsing finishes before the delay library is
# loaded, so none of these cases characterizes anything.
#
#   cmake -DCLI=<path to ctsim_cli> -P ctsim_cli_usage_test.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to ctsim_cli>")
endif()

set(cases
  "--seed-policy|max_latency"
  "--seed-policy|randm"
  "--matching|greedy-centroid"
  "--hstructure|diagonal"
  "--scenario|pareto_sweep"
  "--grid|abc"
  "--grid|12x"
  "--slew|fast"
  "--deadline-ms|1e999"
  "--samples|64.5"
  "--scenario-seed|-1"
  "--pareto-tols|0,1")
foreach(case IN LISTS cases)
  # A quoted "a;b" would be split by the list itself, so pairs use '|'.
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND ${CLI} --bench r1 ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "ctsim_cli --bench r1 ${case}: exit ${rc}, want 2\n${err}")
  endif()
endforeach()
