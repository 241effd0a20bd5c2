# Every simulation of a bench binary runs on the cluster --cluster names.
# TABLE3 and SKEW build their jobs through bench::run_job: TABLE3's run
# report must name as many nodes as the report of REF (a figure binary run
# through the harness's own runs), and SKEW's table rows must change with
# the cluster. Runs in WORKDIR.
set(dir ${WORKDIR}/bench_cluster)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

function(cluster_nodes bin out)
  execute_process(
    COMMAND ${bin} --cluster=nodes:64 --report-out=${dir}/${out}.json
    WORKING_DIRECTORY ${dir}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0 OR NOT EXISTS ${dir}/${out}.json)
    message(FATAL_ERROR "${bin}: exit ${rc}, no report ${out}.json")
  endif()
  file(READ ${dir}/${out}.json json)
  if(NOT json MATCHES "\"cluster_nodes\":\"([0-9]+)\"")
    message(FATAL_ERROR "${out}.json names no cluster_nodes")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

cluster_nodes(${TABLE3} table3)
cluster_nodes(${REF} ref)
if(NOT table3 STREQUAL ref)
  message(FATAL_ERROR
    "table3 report: cluster_nodes ${table3}, reference report: ${ref}")
endif()

# The preamble names the cluster either way; the rows below it are what
# the simulations measured.
function(skew_rows args out)
  execute_process(
    COMMAND ${SKEW} ${args}
    WORKING_DIRECTORY ${dir}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SKEW} ${args}: exit ${rc}")
  endif()
  string(REGEX MATCHALL "\\| 0\\.[0-9] [^\n]*" rows "${stdout}")
  list(LENGTH rows n)
  if(NOT n EQUAL 6)
    message(FATAL_ERROR "${SKEW} ${args}: ${n} skew rows, want 6")
  endif()
  set(${out} "${rows}" PARENT_SCOPE)
endfunction()

skew_rows("--jobs=1" testbed)
skew_rows("--cluster=nodes:64" big)
if(testbed STREQUAL big)
  message(FATAL_ERROR "ext_skew rows ignore --cluster: ${big}")
endif()
