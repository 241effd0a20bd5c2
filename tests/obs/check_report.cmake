# The --report-out acceptance checks: the exported run_report.json must be
# byte-identical at any --jobs value, pass the Python schema validator,
# render to HTML, and diff against itself with zero gated deltas.
execute_process(
  COMMAND ${CLI} --app=terasort --size-gb=2 --strategy=aggressive --seed=77
          --runs=2 --jobs=1 --report-out=check_report_j1.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "mron_cli --jobs=1 failed with ${rc1}")
endif()

execute_process(
  COMMAND ${CLI} --app=terasort --size-gb=2 --strategy=aggressive --seed=77
          --runs=2 --jobs=2 --report-out=check_report_j2.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc2 OUTPUT_QUIET)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "mron_cli --jobs=2 failed with ${rc2}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          check_report_j1.json check_report_j2.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
          "run_report.json differs between --jobs=1 and --jobs=2")
endif()

execute_process(
  COMMAND ${PYTHON} ${TOOLS}/mron_report.py check_report_j1.json --check
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "mron_report.py --check failed with ${check_rc}")
endif()

execute_process(
  COMMAND ${PYTHON} ${TOOLS}/mron_report.py check_report_j1.json
          -o check_report.html
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE html_rc)
if(NOT html_rc EQUAL 0)
  message(FATAL_ERROR "mron_report.py HTML render failed with ${html_rc}")
endif()

# Identical reports: the diff gate must pass at threshold 0 and the
# self-improvement check must fail (nothing is strictly lower).
execute_process(
  COMMAND ${PYTHON} ${TOOLS}/mron_diff.py check_report_j1.json
          check_report_j2.json --threshold 0
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE diff_rc OUTPUT_QUIET)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "mron_diff.py on identical reports exited ${diff_rc}")
endif()

execute_process(
  COMMAND ${PYTHON} ${TOOLS}/mron_diff.py check_report_j1.json
          check_report_j2.json --check-improves exec_secs
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE improve_rc OUTPUT_QUIET ERROR_QUIET)
if(improve_rc EQUAL 0)
  message(FATAL_ERROR
          "--check-improves passed on identical reports; the gate is broken")
endif()

# Every artifact follows the report's rule: each file describes the
# greatest-keyed run, so it is byte-identical at --jobs=1 and over three
# --jobs=4 runs, for mron_cli's repeated runs and a bench binary's fan-out.
# The bare flags take the mron_* default names in both drivers.
function(check_artifacts_stable name)
  foreach(run j1 j4a j4b j4c)
    set(dir ${WORKDIR}/${name}_${run})
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    string(SUBSTRING ${run} 1 1 jobs)
    execute_process(
      COMMAND ${ARGN} --jobs=${jobs} --report-out --metrics-out --trace-out
              --audit-out
      WORKING_DIRECTORY ${dir}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name} --jobs=${jobs} failed with ${rc}")
    endif()
    foreach(f mron_report.json mron_metrics.json mron_trace.json
              mron_audit.jsonl)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/${name}_j1/${f} ${dir}/${f}
        RESULT_VARIABLE cmp_rc)
      if(NOT cmp_rc EQUAL 0)
        message(FATAL_ERROR "${name}: ${f} differs between j1 and ${run}")
      endif()
    endforeach()
  endforeach()
endfunction()

check_artifacts_stable(check_cli_artifacts ${CLI} --app=terasort --size-gb=2
                       --runs=4)
check_artifacts_stable(check_tenants_artifacts ${TENANTS})

# A bench binary's audit describes its tuned run (the greatest key), not
# whichever plain or conservative run finished last.
file(SIZE ${WORKDIR}/check_tenants_artifacts_j1/mron_audit.jsonl tenants_audit)
execute_process(
  COMMAND ${FIG} --jobs=4 --audit-out=check_fig_audit.jsonl
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE fig_rc OUTPUT_QUIET)
file(SIZE ${WORKDIR}/check_fig_audit.jsonl fig_audit)
if(NOT fig_rc EQUAL 0 OR fig_audit EQUAL 0 OR tenants_audit EQUAL 0)
  message(FATAL_ERROR "${FIG} (rc ${fig_rc}, audit ${fig_audit} B) or "
                      "${TENANTS} (audit ${tenants_audit} B): empty tuned "
                      "audit")
endif()
