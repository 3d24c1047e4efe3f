# The chaos_smoke campaign (16 scenarios, seed 7), its stdout pinned line
# for line: one line per scenario (axes, crash and restart flags, rounds
# completed, violations, and a digest of the final model and telemetry)
# and the campaign summary. The campaign must also pass, exit 0. On a
# mismatch the script prints what chaos_smoke.txt would have to read.
#
#   cmake -DCHAOS=<path to lighttr-chaos> -DWORK_DIR=<scratch dir>
#         -P chaos_smoke.cmake
if(NOT CHAOS OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DCHAOS=<path to lighttr-chaos> -DWORK_DIR=<dir>")
endif()

execute_process(
  COMMAND "${CHAOS}" --scenarios=16 --seed=7
  RESULT_VARIABLE code OUTPUT_VARIABLE actual ERROR_VARIABLE errors)
if(NOT code STREQUAL "0")
  message(NOTICE "${actual}${errors}")
  message(FATAL_ERROR "lighttr-chaos: exit '${code}', want 0")
endif()

get_filename_component(here "${CMAKE_SCRIPT_MODE_FILE}" DIRECTORY)
file(READ "${here}/chaos_smoke.txt" expected)
if(NOT actual STREQUAL expected)
  file(MAKE_DIRECTORY "${WORK_DIR}")
  file(WRITE "${WORK_DIR}/chaos_smoke.txt" "${actual}")
  message(NOTICE "${actual}")
  message(FATAL_ERROR "the chaos campaign's output moved; chaos_smoke.txt "
                      "would have to read as printed above (also written "
                      "to ${WORK_DIR}/chaos_smoke.txt)")
endif()
