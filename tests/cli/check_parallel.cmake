# ctest script: the CLI's --threads flag must not change search results.
# Runs the same fault-injected collect twice — serial and with a 4-worker
# evaluation window — and compares the T_a files (checkpoint CSVs: the
# trace plus its draw watermark, clock, stats and quarantine) after
# stripping the wall-clock column (the one field that legitimately
# differs between runs). Then runs a three-cell journaled experiment with
# one cell at a time and with four, and compares every cell's six phase
# files the same way. The gtest suites prove the library-level parity;
# this checks the CLI wiring end to end.
#
# Inputs: -DCLI=<portatune_cli path> -DWORK_DIR=<scratch directory>

file(MAKE_DIRECTORY "${WORK_DIR}")
set(SERIAL "${WORK_DIR}/serial.csv")
set(PARALLEL "${WORK_DIR}/parallel.csv")

foreach(run "serial;1" "parallel;4")
  list(GET run 0 name)
  list(GET run 1 threads)
  execute_process(
    COMMAND "${CLI}" collect
      --problem LU --machine Westmere --nmax 40
      --faults 0.1 --retries 2 --quiet
      --threads "${threads}"
      --out "${WORK_DIR}/${name}.csv"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "portatune_cli collect --threads ${threads} exited with ${rc}:\n"
      "${out}\n${err}")
  endif()
endforeach()

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

canonicalize("${SERIAL}" serial_body)
canonicalize("${PARALLEL}" parallel_body)
if(NOT serial_body STREQUAL parallel_body)
  message(FATAL_ERROR
    "--threads 4 produced a different trace than --threads 1:\n"
    "=== serial ===\n${serial_body}\n=== parallel ===\n${parallel_body}")
endif()

string(REGEX MATCHALL "\n" rows "${serial_body}")
list(LENGTH rows n_rows)
if(n_rows LESS 10)
  message(FATAL_ERROR "trace suspiciously small: ${n_rows} lines")
endif()

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
