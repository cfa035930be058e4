# bench_mc_matching must reject a malformed GDELAY_CAMPAIGN_MODE up front:
# "error: <what>" on stderr and exit code 1, as gdelay_tool does, rather
# than an uncaught exception (abort, exit 134) after the calibration work.
set(ENV{GDELAY_CAMPAIGN_MODE} fork)
execute_process(COMMAND ${BENCH} --outdir ${WORKDIR}/mc_matching_bad_mode
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "error: campaign: unknown mode 'fork' \\(serial\\|thread\\)")
  message(FATAL_ERROR "GDELAY_CAMPAIGN_MODE=fork not reported: ${err}")
endif()
