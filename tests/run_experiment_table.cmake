# run_experiment's printed table, pinned line for line. Three flag sets
# between them print every block of counter rows: the network, attack
# and health blocks; the storage row (the checkpoint directory lies
# under a regular file, so every snapshot write fails); and the plain
# table. A fourth shows that a centralized run prints no health block,
# since it has no federated trainer to heal. A fifth also pins stderr:
# the one note a centralized run prints for the federated-only flags it
# was given. Each run takes about 0.1 s. The Wall (s) value is the only
# thing not compared. On a mismatch the script prints what
# run_experiment_table.txt would have to read.
#
#   cmake -DRUN_EXPERIMENT=<path to run_experiment> -DWORK_DIR=<scratch dir>
#         -P run_experiment_table.cmake
if(NOT RUN_EXPERIMENT OR NOT WORK_DIR)
  message(FATAL_ERROR
          "pass -DRUN_EXPERIMENT=<path to run_experiment> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/not-a-dir" "")

set(actual "")
# Appends "== <label>" and the table run_experiment prints for the base
# flags plus the remaining arguments. With WITH_STDERR among them, what
# it prints on stderr follows under "-- stderr".
function(run_case label)
  cmake_parse_arguments(PARSE_ARGV 1 case "WITH_STDERR" "" "")
  execute_process(
    COMMAND "${RUN_EXPERIMENT}" --clients=3 --rounds=2 --traj-per-client=4
            --grid=5 --kernel=scalar --threads=1 ${case_UNPARSED_ARGUMENTS}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "run_experiment ${label}: exit '${code}', want 0")
  endif()
  string(REGEX REPLACE "\\| Wall \\(s\\) [^\n]*" "| Wall (s) (not compared)"
         out "${out}")
  if(case_WITH_STDERR)
    set(out "${out}-- stderr\n${err}")
  endif()
  set(actual "${actual}== ${label}\n${out}" PARENT_SCOPE)
endfunction()

run_case("net, attack and health"
         --net-drop=0.2 --net-corrupt=0.1 --adversary-count=1
         --aggregation=multikrum --exclude-suspected --health)
run_case("storage" --checkpoint-dir=${WORK_DIR}/not-a-dir/snapshots)
run_case("plain")
run_case("centralized ignores health" --method=centralized --health)
run_case("centralized notes federated-only flags" WITH_STDERR
         --method=centralized --net-drop=0.5 --quarantine-threshold=0.3
         --fraction=0.5 --clip-norm=1)

get_filename_component(here "${CMAKE_SCRIPT_MODE_FILE}" DIRECTORY)
file(READ "${here}/run_experiment_table.txt" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${WORK_DIR}/run_experiment_table.txt" "${actual}")
  message(NOTICE "${actual}")
  message(FATAL_ERROR "run_experiment's table moved; run_experiment_table.txt "
                      "would have to read as printed above (also written "
                      "to ${WORK_DIR}/run_experiment_table.txt)")
endif()
