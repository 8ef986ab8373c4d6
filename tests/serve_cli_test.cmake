# End-to-end test of `s3lb serve`: train a model, drive the line
# protocol from a request script, and hold the responses to a golden.
# The pipeline is deterministic for a fixed model + script, so two runs
# must produce byte-identical output. Invoked by ctest with
# -DCLI=<path-to-binary>.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<s3lb binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/serve_cli_test_work")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "s3lb ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "s3lb ${ARGN}: OK")
endfunction()

# Model pipeline: generate -> replay(llf) -> train.
run_cli(generate --out "${WORK}/w.csv" --users 300 --days 5
        --buildings 2 --aps 1 --seed 3)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/collected.csv"
        --policy llf --buildings 2 --aps 1)
run_cli(train --in "${WORK}/collected.csv" --out "${WORK}/model.txt")

# Request script: two users share an AP neighbourhood for >10 min and
# leave within 5 min of each other — an encounter and a co-leaving the
# live model must record (visible as updated_pairs in `stats`). The
# `social` queries solve the clique cover before any departure, after
# the co-leaving, and at the end.
file(WRITE "${WORK}/requests.txt"
"# serve protocol script
arrive 1 10 0 8 6 0 1.5
arrive 2 11 0 9 6 30 1.0
arrive 3 12 1 8 6 60 2.0
stats
social
depart 1 900
depart 2 1000
depart 3 1200
social
stats
depart 9 1300
arrive 1 10 0 8 6 1400 1.5
depart 1 1500
social
")

run_cli(serve --model "${WORK}/model.txt" --buildings 2 --aps 1
        --in "${WORK}/requests.txt" --out "${WORK}/responses.txt")
run_cli(serve --model "${WORK}/model.txt" --buildings 2 --aps 1
        --in "${WORK}/requests.txt" --out "${WORK}/responses2.txt")

# Determinism: identical runs, byte for byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/responses.txt" "${WORK}/responses2.txt"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "serve responses differ between identical runs")
endif()

# Response golden: one line per request, in request order.
file(READ "${WORK}/responses.txt" responses)
string(REGEX MATCHALL "[^\n]+" lines "${responses}")
list(LENGTH lines nlines)
if(NOT nlines EQUAL 14)
  message(FATAL_ERROR "expected 14 response lines, got ${nlines}:\n${responses}")
endif()
# `social` replies are pinned through exact= here, and in full below.
set(social_cover
    "^social users=300 cliques=27 singletons=29 largest=33 cohesion=0\\.000000 exact=1 ")
set(expected_patterns
    "^place 1 [0-9]+$"
    "^place 2 [0-9]+$"
    "^place 3 [0-9]+$"
    "^stats placements=3 departures=0 active=3 fallback=0 overloads=0 rejected=0 updated_pairs=0$"
    "${social_cover}"
    "^gone 1$"
    "^gone 2$"
    "^gone 3$"
    "${social_cover}"
    "^stats placements=3 departures=3 active=0 fallback=0 overloads=0 rejected=0 updated_pairs=1$"
    "^gone 9 unknown$"
    "^place 1 [0-9]+$"
    "^gone 1$"
    "${social_cover}")
set(i 0)
foreach(pattern IN LISTS expected_patterns)
  list(GET lines ${i} line)
  if(NOT line MATCHES "${pattern}")
    message(FATAL_ERROR
            "response line ${i} mismatch: got \"${line}\", want ${pattern}")
  endif()
  math(EXPR i "${i} + 1")
endforeach()
message(STATUS "serve golden: 14/14 response lines match")

# The θ graph each `social` reply solved: the co-leaving adds one edge
# and merges no component.
set(social_at 4 8 13)
set(social_edges 4931 4932 4932)
foreach(k RANGE 2)
  list(GET social_at ${k} at)
  list(GET social_edges ${k} edges)
  list(GET lines ${at} line)
  if(NOT line MATCHES "${social_cover}edges=${edges} components=5$")
    message(FATAL_ERROR
            "social reply ${at}: got \"${line}\", want edges=${edges} components=5")
  endif()
endforeach()

# A social policy without a model must be refused.
execute_process(COMMAND ${CLI} serve --buildings 2 --aps 1
                        --in "${WORK}/requests.txt"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve --policy s3 without --model should fail")
endif()

# Baselines need no model. `social` still answers: the live pairs
# name users the empty model does not know, and the cover skips them.
run_cli(serve --policy llf --buildings 2 --aps 1
        --in "${WORK}/requests.txt" --out "${WORK}/llf_responses.txt")
file(STRINGS "${WORK}/llf_responses.txt" llf_social REGEX "^social ")
list(LENGTH llf_social nsocial)
if(NOT nsocial EQUAL 3)
  message(FATAL_ERROR "llf: expected 3 social replies, got ${nsocial}")
endif()
foreach(line IN LISTS llf_social)
  if(NOT line MATCHES "^social users=0 cliques=0 singletons=0 largest=0 ")
    message(FATAL_ERROR "llf social reply mismatch: got \"${line}\"")
  endif()
endforeach()

# Out-of-range arrive fields get an err reply and the session goes on:
# the valid arrival after them is still placed. Any err line makes the
# exit code 1.
file(WRITE "${WORK}/bad_requests.txt"
"arrive 2 11 99 8 6 0 1.5
arrive 3 4294967295 0 8 6 0 1.5
arrive 4 11 0 8 6 0 -5
arrive 5 11 0 8 6 0 1.5
")
execute_process(COMMAND ${CLI} serve --model "${WORK}/model.txt"
                        --buildings 2 --aps 1
                        --in "${WORK}/bad_requests.txt"
                        --out "${WORK}/bad_responses.txt"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "serve on out-of-range lines: want rc 1, got ${rc}\n${err}")
endif()
file(STRINGS "${WORK}/bad_responses.txt" bad_lines)
set(expected_bad
    "err out-of-range arrive 2 11 99 8 6 0 1.5"
    "err out-of-range arrive 3 4294967295 0 8 6 0 1.5"
    "err out-of-range arrive 4 11 0 8 6 0 -5")
list(LENGTH bad_lines nbad)
if(NOT nbad EQUAL 4)
  message(FATAL_ERROR "expected 4 replies to bad_requests, got ${nbad}:\n${err}")
endif()
set(i 0)
foreach(want IN LISTS expected_bad)
  list(GET bad_lines ${i} line)
  if(NOT line STREQUAL want)
    message(FATAL_ERROR "bad request ${i}: got \"${line}\", want \"${want}\"")
  endif()
  math(EXPR i "${i} + 1")
endforeach()
list(GET bad_lines 3 line)
if(NOT line MATCHES "^place 5 [0-9]+$")
  message(FATAL_ERROR "valid arrival after bad lines: got \"${line}\"")
endif()
