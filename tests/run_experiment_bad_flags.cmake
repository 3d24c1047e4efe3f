# Every out-of-range numeric flag makes run_experiment print its usage
# and exit with 2: no CHECK abort, no uncaught exception, and no run on a
# value that describes no experiment. NaN must fail every range check,
# an integer past INT_MAX must not wrap into a different one, a thread
# count past kMaxThreads must not start a pool of that width, a seed
# takes the unsigned 64-bit range only (no sign, no overflow), and a
# number that is infinite or overflows to infinity is no number at all.
# Each kind of bound a flag carries is probed at its edge: a rate of 1, a
# fraction or threshold of 0, a count below its floor, a name no list
# holds. --resume without --checkpoint-dir and more attackers than
# clients (the trailing --clients=2) are refused too, and so is a
# centralized run whose rounds x epochs passes INT_MAX (each flag alone
# is in range). A misspelt flag is not ignored: it would run on the
# defaults.
#
#   cmake -DRUN_EXPERIMENT=<path to run_experiment> -P run_experiment_bad_flags.cmake
if(NOT RUN_EXPERIMENT)
  message(FATAL_ERROR "pass -DRUN_EXPERIMENT=<path to run_experiment>")
endif()

set(cases
  "--fraction=0"
  "--fraction=1.5"
  "--lr=-1"
  "--lr=nan"
  "--keep=nan"
  "--clip-norm=nan"
  "--quarantine-threshold=nan --health"
  "--adversary-scale=nan --adversary-count=1"
  "--traj-per-client=-3"
  "--traj-per-client=0"
  "--byzantine-fraction=nan"
  "--rounds=4294967297"
  "--clients=4294967298"
  "--epochs=4294967297"
  "--threads=1025"
  "--seed=-1"
  "--seed=18446744073709551616"
  "--net-seed=-1"
  "--adversary-seed=-7"
  "--lr=inf"
  "--lr=1e999"
  "--clip-norm=inf"
  "--adversary-scale=inf --adversary-count=1"
  "--round=3"
  "--helth"
  "--health=yes"
  "--net-drop=1"
  "--byzantine-fraction=1"
  "--quarantine-threshold=0"
  "--keep=0"
  "--grid=2"
  "--checkpoint-every=0"
  "--max-rollbacks=-1"
  "--net-retries=-1"
  "--adversary-start=0"
  "--adversary-count=3"
  "--resume"
  "--method=foo"
  "--dataset=foo"
  "--kernel=avx512"
  "--aggregation=foo"
  "--adversary-attack=foo"
  "--method=centralized --rounds=65536 --epochs=65536")

set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  # The case's flags come first: the first spelling of a flag wins, and
  # the trailing ones only keep an accidental run short.
  execute_process(
    COMMAND "${RUN_EXPERIMENT}" ${args} --threads=1 --rounds=1 --clients=2
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code STREQUAL "2")
    message(SEND_ERROR "run_experiment ${case}: exit '${code}', want 2")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bad flag(s) did not exit with usage")
endif()
