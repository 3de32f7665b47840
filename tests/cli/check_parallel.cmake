# ctest script: the CLI's --threads flag must not change search results.
# Runs the same fault-injected collect twice — serial and with a 4-worker
# evaluation window — and compares the T_a files (checkpoint CSVs: the
# trace plus its draw watermark, clock, stats and quarantine) after
# stripping the wall-clock column (the one field that legitimately
# differs between runs). The gtest suites prove the library-level parity;
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
