# Shuffle-heavy determinism: Bigram/Wikipedia (676 maps x 200 reducers on
# the 18-slave testbed), where per-host visits batch several segments per
# connection. run_report.json must be byte-identical at --jobs=1 and
# --jobs=4, with and without a node-crash fault plan, and validate.

set(CRASH_PLAN "heartbeat period=0.5 timeout=3\ncrash node=2 at=200")

function(run_cli out_report extra_args)
  execute_process(
    COMMAND ${CLI} --app=bigram --corpus=wikipedia --strategy=aggressive
            --seed=77 --runs=2 --report-out=${out_report} ${extra_args}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mron_cli ${extra_args} failed with ${rc}")
  endif()
endfunction()

function(reports_must_match a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR "run_report.json differs ${what}")
  endif()
endfunction()

run_cli(check_shuffle_j1.json "--jobs=1")
run_cli(check_shuffle_j4.json "--jobs=4")
run_cli(check_shuffle_crash_j1.json "--jobs=1;--fault-spec=${CRASH_PLAN}")
run_cli(check_shuffle_crash_j4.json "--jobs=4;--fault-spec=${CRASH_PLAN}")
reports_must_match(check_shuffle_j1.json check_shuffle_j4.json
                   "between --jobs=1 and --jobs=4")
reports_must_match(check_shuffle_crash_j1.json check_shuffle_crash_j4.json
                   "between --jobs=1 and --jobs=4 under a node crash")

foreach(report check_shuffle_j1.json check_shuffle_crash_j1.json)
  execute_process(
    COMMAND ${PYTHON} ${TOOLS}/mron_report.py ${report} --check
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE check_rc)
  if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR "mron_report.py --check on ${report} failed")
  endif()
endforeach()

# The workload must actually exercise what this test guards: visits that
# carry several segments, and a crash that loses completed map outputs.
execute_process(
  COMMAND ${PYTHON} -c "
import json, sys
plain = json.load(open('check_shuffle_j1.json'))
crash = json.load(open('check_shuffle_crash_j1.json'))
m = plain['metrics']
ok = m['mr.shuffle.segments'] > 2 * m['mr.shuffle.fetches'] > 0
ok = ok and crash['faults']['lost_map_reexecutions'] > 0
sys.exit(0 if ok else 1)"
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE shape_rc)
if(NOT shape_rc EQUAL 0)
  message(FATAL_ERROR "shuffle-heavy run did not batch segments per visit, "
          "or the crash plan lost no map output")
endif()
