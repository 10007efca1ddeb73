# Runs the paper-figure benches named in BENCHES (a list of binaries),
# drops the `seconds` column of their CSV output, and requires the rest
# (each row's parameters and nodes_visited) to equal EXPECTED. Timings
# vary from run to run; the nodes each algorithm visits do not, so a
# change in them is a change in the search. A bench that writes to
# stderr (such as a run overflowing the size memo's budget) fails too.
#
#   cmake -DBENCHES="a;b" -DEXPECTED=file.csv -DOUT=actual.csv -P this
set(actual "")
foreach(bench IN LISTS BENCHES)
  execute_process(COMMAND "${bench}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors)
  if(NOT status EQUAL 0 OR NOT errors STREQUAL "")
    message(FATAL_ERROR "${bench} exited with ${status}:\n${errors}")
  endif()
  string(REPLACE "\n" ";" lines "${output}")
  set(seconds_column -1)
  foreach(line IN LISTS lines)
    if(line STREQUAL "")
      continue()
    endif()
    string(REPLACE "," ";" fields "${line}")
    if(seconds_column EQUAL -1)
      list(FIND fields "seconds" seconds_column)
      if(seconds_column EQUAL -1)
        message(FATAL_ERROR "${bench}: no seconds column in '${line}'")
      endif()
    endif()
    list(REMOVE_AT fields ${seconds_column})
    string(REPLACE ";" "," line "${fields}")
    string(APPEND actual "${line}\n")
  endforeach()
endforeach()

file(WRITE "${OUT}" "${actual}")
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "nodes_visited differ from ${EXPECTED}; the run's rows are in ${OUT}")
endif()
message(STATUS "nodes_visited of every row equal ${EXPECTED}")
