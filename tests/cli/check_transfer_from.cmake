# ctest script: `transfer --from T_a.csv` must run the same RS_b as the
# `transfer` experiment's biased phase. It collects T_a on the source
# machine with `collect` (the same draws the experiment's source RS
# makes), then runs both transfer forms at the same seed and budget and
# compares their search.RS_b events: the evaluation count, the best run
# time and the simulated search time must be equal.
#
# Inputs: -DCLI=<portatune_cli path> -DWORK_DIR=<scratch directory>

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(common --problem LU --source Westmere --target Sandybridge
           --seed 5 --nmax 30)

function(run_cli name)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "portatune_cli ${name} exited with ${rc}:\n"
                        "${out}\n${err}")
  endif()
endfunction()

run_cli(collect collect ${common} --machine Westmere --quiet
        --out ta.csv)
run_cli(transfer transfer ${common} --log-json experiment.jsonl)
run_cli("transfer --from" transfer ${common} --from ta.csv
        --log-json from.jsonl)

# The fields of the one search.RS_b event in `log`, as "evals;best;time".
function(rs_b_summary log out_var)
  file(STRINGS "${WORK_DIR}/${log}" lines REGEX "\"name\":\"search\\.RS_b\"")
  list(LENGTH lines n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "${log}: expected one search.RS_b event, got ${n}")
  endif()
  set(fields "")
  foreach(key evals best_seconds search_seconds)
    if(NOT lines MATCHES "\"${key}\":([0-9.eE+-]+)")
      message(FATAL_ERROR "${log}: search.RS_b has no ${key}:\n${lines}")
    endif()
    list(APPEND fields "${key}=${CMAKE_MATCH_1}")
  endforeach()
  set(${out_var} "${fields}" PARENT_SCOPE)
endfunction()

rs_b_summary(experiment.jsonl experiment)
rs_b_summary(from.jsonl from)
if(NOT experiment STREQUAL from)
  message(FATAL_ERROR "transfer --from ran a different RS_b:\n"
                      "  transfer:        ${experiment}\n"
                      "  transfer --from: ${from}")
endif()
message(STATUS "RS_b matches: ${experiment}")
