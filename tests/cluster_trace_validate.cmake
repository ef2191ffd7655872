# ctest script behind the cluster_trace_validate test: run a distributed
# wordcount on the in-process loopback cluster with --cluster-trace, then
# validate the merged trace — one named pid lane per process (coordinator +
# 2 workers), dispatch flow arrows with matched s/f pairs, task spans from
# both the map and reduce sides, and phase spans inside their task spans.
set(TRACE_FILE ${WORK_DIR}/cluster_trace_validate.json)

execute_process(
  COMMAND ${ANTIMR_CLI} run --workload=wordcount --records=3000
          --maps=4 --reduces=3 --dist=loopback --workers=2
          --cluster-trace=${TRACE_FILE}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "antimr_cli run --dist=loopback failed (${run_rc}):\n"
                      "${run_out}\n${run_err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${TRACE_FILE}
          --expect-pids 3 --expect-flows 2
          --expect-span dist_map --expect-span dist_reduce
          --expect-phases-within-tasks
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
message(STATUS "${validate_out}${validate_err}")
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "validate_trace.py rejected ${TRACE_FILE}")
endif()
