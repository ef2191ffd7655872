# ctest script behind the trace_validate test: run a small two-stage
# pipeline (wordcount -> sort) with a trace sink, then validate the trace
# structurally and against the observability acceptance bar (spans from both
# stages, at least one anti-combining instant, every task's phase spans
# inside the task's span).
set(TRACE_FILE ${WORK_DIR}/trace_validate.json)

execute_process(
  COMMAND ${ANTIMR_CLI} pipeline --records=2000 --maps=4 --reduces=4
          --trace=${TRACE_FILE}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "antimr_cli pipeline failed (${run_rc}):\n"
                      "${run_out}\n${run_err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${TRACE_FILE}
          --expect-stages 2 --expect-anticombine
          --expect-phases-within-tasks
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
message(STATUS "${validate_out}${validate_err}")
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "validate_trace.py rejected ${TRACE_FILE}")
endif()
