# Smoke-test driver for the JSONL serving tool, invoked by CTest as
# `cmake -P run_serve_smoke.cmake` with:
#   -DBINARY=<path to fairtopk_serve>
#   -DSCRIPT=<path to a .jsonl request script, piped to stdin>
#   -DOUT=<path>                 where to capture stdout
#   -DARGS=<semicolon list>      startup arguments (CSV, rank column, ...)
#   -DEXPECT=<semicolon list>    optional per-line expectations, one of
#                                `ok` or `err`, aligned with the
#                                script's non-blank lines; defaults to
#                                all `ok`. `err` lines must answer with
#                                "ok":false — and with "id":null when
#                                the request line is not a JSON object
#                                (the malformed-mid-stream envelope).
#   -DGOLDEN=<path>              optional file of the expected responses:
#                                stdout must equal it byte for byte once
#                                the members that vary by run or by
#                                schedule (seconds, cpu_seconds,
#                                sizes_counted, cached, coalesced) read
#                                `_` in both.
# Fails unless the binary exits 0 and answers EVERY request line with a
# JSON object matching its expectation — in particular, a malformed
# line must produce an error envelope and must NOT stop the stream.

if(NOT DEFINED BINARY OR NOT DEFINED SCRIPT OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "run_serve_smoke.cmake requires -DBINARY, -DSCRIPT and -DOUT")
endif()

execute_process(
  COMMAND "${BINARY}" ${ARGS}
  INPUT_FILE "${SCRIPT}"
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE exit_code
)

if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${exit_code}")
endif()

# One response line per (non-blank) request line.
file(STRINGS "${SCRIPT}" requests)
list(LENGTH requests request_count)
file(STRINGS "${OUT}" responses)
list(LENGTH responses response_count)
if(NOT response_count EQUAL request_count)
  message(FATAL_ERROR
          "expected ${request_count} responses, got ${response_count}")
endif()

set(index 0)
foreach(line IN LISTS responses)
  if(DEFINED EXPECT)
    list(GET EXPECT ${index} expectation)
  else()
    set(expectation ok)
  endif()
  string(SUBSTRING "${line}" 0 1 first_char)
  if(NOT first_char STREQUAL "{")
    message(FATAL_ERROR "response is not a JSON object: ${line}")
  endif()
  if(expectation STREQUAL "ok")
    string(FIND "${line}" "\"ok\":true" ok_pos)
    if(ok_pos EQUAL -1)
      message(FATAL_ERROR "response is not ok: ${line}")
    endif()
  else()
    string(FIND "${line}" "\"ok\":false" err_pos)
    if(err_pos EQUAL -1)
      message(FATAL_ERROR "response should be an error envelope: ${line}")
    endif()
    string(FIND "${line}" "\"error\"" error_pos)
    if(error_pos EQUAL -1)
      message(FATAL_ERROR "error envelope misses \"error\": ${line}")
    endif()
    # A request line that is not a JSON object cannot echo an id: the
    # envelope must carry id null.
    list(GET requests ${index} request)
    string(SUBSTRING "${request}" 0 1 request_first)
    if(NOT request_first STREQUAL "{")
      string(FIND "${line}" "\"id\":null" null_pos)
      if(null_pos EQUAL -1)
        message(FATAL_ERROR
                "malformed request must answer with id null: ${line}")
      endif()
    endif()
  endif()
  math(EXPR index "${index} + 1")
endforeach()

if(DEFINED GOLDEN)
  file(READ "${OUT}" actual)
  file(READ "${GOLDEN}" expected)
  foreach(text IN ITEMS actual expected)
    string(REGEX REPLACE
           "\"(seconds|cpu_seconds|sizes_counted|cached|coalesced)\":[^,}]*"
           "\"\\1\":_" ${text} "${${text}}")
  endforeach()
  if(NOT actual STREQUAL expected)
    # Name the first line that differs. Lines are cut with string(FIND),
    # not as a CMake list: a JSON line may hold ';' inside brackets.
    set(line_number 0)
    set(searching ON)
    while(searching)
      math(EXPR line_number "${line_number} + 1")
      string(FIND "${actual}" "\n" actual_end)
      string(FIND "${expected}" "\n" expected_end)
      string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
      string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
      if(NOT actual_line STREQUAL expected_line OR actual_end EQUAL -1 OR
         expected_end EQUAL -1)
        set(searching OFF)
      else()
        math(EXPR actual_end "${actual_end} + 1")
        math(EXPR expected_end "${expected_end} + 1")
        string(SUBSTRING "${actual}" ${actual_end} -1 actual)
        string(SUBSTRING "${expected}" ${expected_end} -1 expected)
      endif()
    endwhile()
    message(FATAL_ERROR
            "response ${line_number} differs from ${GOLDEN} "
            "(varying members masked):\n"
            "  got:      ${actual_line}\n"
            "  expected: ${expected_line}")
  endif()
endif()
