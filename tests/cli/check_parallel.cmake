# ctest script: the CLI's --threads flag must not change search results.
# Runs two fault-injected collects twice each — serial and with a
# 4-worker evaluation window — and compares the T_a files (checkpoint
# CSVs: the trace plus its draw watermark, clock, stats and quarantine)
# after stripping the wall-clock column (the one field that legitimately
# differs between runs). The first injects transient failures; the
# second adds hangs that only the resilient layer's --timeout deadline
# ends, so the timed path runs in every CI job, the sanitizer ones
# included. Then runs a three-cell journaled experiment with one cell at
# a time and with four, and compares every cell's six phase files the
# same way. The gtest suites prove the library-level parity; this checks
# the CLI wiring end to end.
#
# Inputs: -DCLI=<portatune_cli path> -DWORK_DIR=<scratch directory>

file(MAKE_DIRECTORY "${WORK_DIR}")

# collect_pair(<name> <cli options...>): the same collect at --threads 1
# and 4, into <name>-1.csv and <name>-4.csv; sets <name>_out to the
# serial run's output.
function(collect_pair name)
  foreach(threads 1 4)
    execute_process(
      COMMAND "${CLI}" collect
        --problem LU --machine Westmere --nmax 40 ${ARGN}
        --threads "${threads}"
        --out "${WORK_DIR}/${name}-${threads}.csv"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "portatune_cli collect ${ARGN} --threads ${threads} exited with "
        "${rc}:\n${out}\n${err}")
    endif()
    if(threads EQUAL 1)
      set(${name}_out "${out}" PARENT_SCOPE)
    endif()
  endforeach()
endfunction()

collect_pair(transient --faults 0.1 --retries 2 --quiet)
collect_pair(timed --faults transient:0.1,hang:0.05,hang-stall:30
  --retries 2 --timeout 1)
if(NOT timed_out MATCHES ", [1-9][0-9]* timeout\\)")
  message(FATAL_ERROR
    "the timed collect recorded no timeout; its hangs never reached the "
    "--timeout deadline:\n${timed_out}")
endif()

# Strip the trailing wall_unix column from every data row — and the
# checksum footer, which hashes those timestamps and so differs too —
# then compare. The metadata rows stay in the comparison.
function(canonicalize path out_var)
  file(STRINGS "${path}" lines ENCODING UTF-8)
  set(result "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^# checksum,")
      continue()
    endif()
    if(line MATCHES "^[0-9]")
      string(REGEX REPLACE ",[0-9.eE+-]+$" "" line "${line}")
    endif()
    string(APPEND result "${line}\n")
  endforeach()
  set(${out_var} "${result}" PARENT_SCOPE)
endfunction()

foreach(name transient timed)
  canonicalize("${WORK_DIR}/${name}-1.csv" serial_body)
  canonicalize("${WORK_DIR}/${name}-4.csv" parallel_body)
  if(NOT serial_body STREQUAL parallel_body)
    message(FATAL_ERROR
      "${name} collect: --threads 4 produced a different trace than "
      "--threads 1:\n"
      "=== serial ===\n${serial_body}\n=== parallel ===\n${parallel_body}")
  endif()

  string(REGEX MATCHALL "\n" rows "${serial_body}")
  list(LENGTH rows n_rows)
  if(n_rows LESS 10)
    message(FATAL_ERROR "${name} trace suspiciously small: ${n_rows} lines")
  endif()
endforeach()

# The journaled experiment: cells fan out on the global pool, where each
# cell's fits and ranks nest inside the cell loop.
set(PAIRS "Westmere:Sandybridge,Westmere:Power7,Sandybridge:Power7")
foreach(threads 1 4)
  set(run_dir "${WORK_DIR}/journal-${threads}")
  file(REMOVE_RECURSE "${run_dir}")
  execute_process(
    COMMAND "${CLI}" experiment --problem LU --pairs "${PAIRS}" --nmax 20
      --threads "${threads}" --run-dir "${run_dir}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "portatune_cli experiment --threads ${threads} exited with ${rc}:\n"
      "${out}\n${err}")
  endif()
endforeach()

file(GLOB_RECURSE serial_phases RELATIVE "${WORK_DIR}/journal-1"
  "${WORK_DIR}/journal-1/cell-*/*.csv")
file(GLOB_RECURSE parallel_phases RELATIVE "${WORK_DIR}/journal-4"
  "${WORK_DIR}/journal-4/cell-*/*.csv")
list(SORT serial_phases)
list(SORT parallel_phases)
list(LENGTH serial_phases n_phases)
if(NOT n_phases EQUAL 18 OR NOT serial_phases STREQUAL parallel_phases)
  message(FATAL_ERROR
    "expected the same 18 phase files (3 cells x 6 phases) from both "
    "experiment runs:\n--threads 1: ${serial_phases}\n"
    "--threads 4: ${parallel_phases}")
endif()
foreach(phase IN LISTS serial_phases)
  canonicalize("${WORK_DIR}/journal-1/${phase}" serial_body)
  canonicalize("${WORK_DIR}/journal-4/${phase}" parallel_body)
  if(NOT serial_body STREQUAL parallel_body)
    message(FATAL_ERROR
      "experiment --threads 4 wrote a different ${phase} than --threads 1:\n"
      "=== serial ===\n${serial_body}\n=== parallel ===\n${parallel_body}")
  endif()
endforeach()
