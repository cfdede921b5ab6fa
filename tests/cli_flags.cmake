# ctest driver for the CLI's flag check: each subcommand rejects what it
# does not parse with exit 2, naming the token, before it reads any input,
# and accepts the flags scripts pass it.
#
#   cmake -DFTCLUST=path/to/ftclust -P tests/cli_flags.cmake
#
# The capture path does not exist: exit 2 proves the check ran first, and
# exit 1 ("cannot open") proves the flags got past it.

function(expect code pattern)
  execute_process(COMMAND ${FTCLUST} ${ARGN}
                  RESULT_VARIABLE got ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT got EQUAL code OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "ftclust ${ARGN}: exit ${got}, expected ${code} "
                        "and stderr matching '${pattern}'; stderr:\n${err}")
  endif()
endfunction()

set(missing ${CMAKE_CURRENT_BINARY_DIR}/no-such-capture.pcap)

expect(2 "unknown flag --dedline-ms" run ${missing} --dedline-ms 1 --threads 1)
expect(2 "unknown flag --neighbourhood" run ${missing} --neighbourhood sparse)
expect(2 "unknown flag --lenient" serve --spool ${missing} --lenient)
expect(2 "--threads needs a value" run ${missing} --report-out r.txt --threads)
expect(2 "--report-out needs a value" run ${missing} --report-out --threads 2)
expect(2 "unexpected argument extra" run ${missing} extra)
expect(2 "missing operand before --threads" run --threads 2)
expect(2 "unknown flag --json" generate DNS 10 x.pcap --json)

expect(1 "cannot open" run ${missing} --threads 2 --segmenter NEMESYS
       --report-out r.txt --trace-out t.json --manifest-out m.json
       --metrics-out p.txt --budget 5 --lenient --max-memory 30MB)
expect(0 "" version --json)
