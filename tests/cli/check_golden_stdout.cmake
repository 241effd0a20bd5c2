# The figure tables a bench binary prints are pinned: BIN run at --jobs=4
# in WORKDIR must print exactly the committed GOLDEN text (recorded at
# --jobs=1, so this also checks that the fan-out does not move a number).
# A golden file changes only with a change that says it moves the
# simulation, with the old and new text in CHANGES.md.
get_filename_component(name ${BIN} NAME)
set(out ${WORKDIR}/golden_${name}.txt)
execute_process(
  COMMAND ${BIN} --jobs=4
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc
  OUTPUT_FILE ${out})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} --jobs=4: exit ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${out}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  file(READ ${out} got)
  message(FATAL_ERROR "${name} stdout differs from ${GOLDEN}; got:\n${got}")
endif()
