# ctest script: the example programs the README points newcomers at must
# run to completion. Each one runs from a fresh scratch working directory
# of its own (anything it writes lands there) and must exit 0.
#
# Inputs: -DEXAMPLES=<path;path;...> -DWORK_DIR=<scratch directory>

foreach(example IN LISTS EXAMPLES)
  get_filename_component(name "${example}" NAME_WE)
  set(dir "${WORK_DIR}/${name}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${example}"
    WORKING_DIRECTORY "${dir}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}:\n${out}\n${err}")
  endif()
  message(STATUS "${name}: exit 0")
endforeach()
