# Replay goldens: the assigned trace of every replay path, and the model
# trained from the LLF run, must hash to the committed SHA-256 values —
# at --threads 1 and --threads 4 alike. Refactors and optimisations of
# the placement path must keep these bytes; a change that moves them
# changes behaviour. Invoked by ctest with -DCLI=<path-to-binary>.
#
# To print fresh hashes instead of comparing (only for a deliberate
# behaviour change, never to make a refactor pass):
#   cmake -DCLI=build/tools/s3lb -DRECORD=ON -P tests/replay_golden_test.cmake

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<s3lb binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/replay_golden_test_work")
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
endfunction()

# Reports every mismatch (SEND_ERROR keeps going) so one run shows the
# full extent of a behaviour change.
function(expect_sha256 name path golden)
  file(SHA256 "${path}" got)
  if(RECORD)
    message(STATUS "golden ${name} ${got}")
  elseif(got STREQUAL golden)
    message(STATUS "${name}: matches golden")
  else()
    message(SEND_ERROR "${name}: SHA-256 ${got}, golden ${golden}")
  endif()
endfunction()

# --- world and model ----------------------------------------------------
# 3 buildings x 4 APs: controllers 0-2, APs 0-11; the trace spans 6 days
# (518400 s).

set(TOPO --buildings 3 --aps 4)
run_cli(generate --out "${WORK}/w.csv" --users 400 --days 6 ${TOPO}
        --seed 7)
run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/collected.csv"
        --policy llf ${TOPO} --threads 1)
run_cli(train --in "${WORK}/collected.csv" --out "${WORK}/model.txt"
        ${TOPO})
expect_sha256(model "${WORK}/model.txt"
  8ec28eab48a393082adca64f5db79f2fe929c650f279f45b25c10d6dbee6d448)

# AP churn, a model outage (S3 degrades to its embedded LLF) and an
# admission-failure window (retries and re-associations).
file(WRITE "${WORK}/ap_model_outage.txt"
"s3fault v1
ap-outage 1 30000 60000
ap-outage 6 200000 230000
model-outage 100000 160000
admission-failure 0.1 250000 300000
")

# Two controller crashes, each covered by its domain's backup, plus an
# AP outage so the run differs from plain LLF.
file(WRITE "${WORK}/controller_outage.txt"
"s3fault v1
controller-outage 0 36000 50400
controller-outage 2 122400 136800
ap-outage 5 200000 230000
")

# Whole-replica-set losses: a neighbour controller adopts each lost
# domain and hands it back when the window closes, plus a crash and an
# AP outage in other domains.
file(WRITE "${WORK}/controller_loss.txt"
"s3fault v1
controller-outage 0 36000 50400
controller-loss 1 54000 64800
controller-loss 2 300000 320000
ap-outage 5 200000 230000
")

# --- goldens ------------------------------------------------------------

set(GOLDEN_llf
  1b8eae58675dbdab61fd7e49a3dd39bbe95390660751dcb40e63ba44fb36d084)
set(GOLDEN_s3
  8d13e62e3eaa0759a00f9339a5e25e0bc51fa135e5aa5399067a228fce2b5bba)
set(GOLDEN_s3_online
  05040a2c2c7a775341cacefa225a358a37b02e566c2c9a6f0c9d77ff24ea15db)
set(GOLDEN_s3_faults
  2afa67f16d5160d136864ab49a296958424524469ded16113ac0eeab24e69707)
set(GOLDEN_llf_replicated
  2632993e6055001945cde4b67024092dec566fec81ce5f04af2a32440664733d)
set(GOLDEN_s3_online_replicated
  36de5a3544966b2050a2030871e0e95b6d18b6199eb4bca7449ea495a4100040)
set(GOLDEN_llf_headless
  ec316562878e830b6736f7be4b852520eb9bae40179bab6ed9e15ab2de23f4f3)
# Adoption and hand-back are lossless: the same bytes as the
# outage-only replicated run.
set(GOLDEN_s3_online_loss
  36de5a3544966b2050a2030871e0e95b6d18b6199eb4bca7449ea495a4100040)

foreach(threads 1 4)
  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/llf_t${threads}.csv"
          --policy llf ${TOPO} --threads ${threads})
  expect_sha256(llf_t${threads} "${WORK}/llf_t${threads}.csv"
                ${GOLDEN_llf})

  run_cli(replay --in "${WORK}/w.csv" --out "${WORK}/s3_t${threads}.csv"
          --policy s3 --model "${WORK}/model.txt" ${TOPO}
          --threads ${threads})
  expect_sha256(s3_t${threads} "${WORK}/s3_t${threads}.csv" ${GOLDEN_s3})

  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/s3_online_t${threads}.csv"
          --policy s3-online --model "${WORK}/model.txt" ${TOPO}
          --threads ${threads})
  expect_sha256(s3_online_t${threads} "${WORK}/s3_online_t${threads}.csv"
                ${GOLDEN_s3_online})

  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/s3_faults_t${threads}.csv"
          --policy s3 --model "${WORK}/model.txt" ${TOPO}
          --fault-plan "${WORK}/ap_model_outage.txt" --fault-seed 9
          --threads ${threads})
  expect_sha256(s3_faults_t${threads} "${WORK}/s3_faults_t${threads}.csv"
                ${GOLDEN_s3_faults})

  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/llf_replicated_t${threads}.csv"
          --policy llf ${TOPO} --replicas 1
          --fault-plan "${WORK}/controller_outage.txt" --fault-seed 9
          --threads ${threads})
  expect_sha256(llf_replicated_t${threads}
                "${WORK}/llf_replicated_t${threads}.csv"
                ${GOLDEN_llf_replicated})

  # Live-learning replicas: backups catch up from snapshots of the
  # online selector (its clone()), so a failover hands over the learnt
  # social state mid-stream.
  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/s3_online_replicated_t${threads}.csv"
          --policy s3-online --model "${WORK}/model.txt" ${TOPO}
          --replicas 1 --snapshot-every 64
          --fault-plan "${WORK}/controller_outage.txt" --fault-seed 9
          --threads ${threads})
  expect_sha256(s3_online_replicated_t${threads}
                "${WORK}/s3_online_replicated_t${threads}.csv"
                ${GOLDEN_s3_online_replicated})

  # No backups: each outage is ridden out headless, so arrivals inside
  # the windows are dropped and the pending batch is discarded.
  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/llf_headless_t${threads}.csv"
          --policy llf ${TOPO} --replicas 0
          --fault-plan "${WORK}/controller_outage.txt" --fault-seed 9
          --threads ${threads})
  expect_sha256(llf_headless_t${threads}
                "${WORK}/llf_headless_t${threads}.csv"
                ${GOLDEN_llf_headless})

  # Adoption from a snapshot of the learning selector, then hand-back
  # to the revived original.
  run_cli(replay --in "${WORK}/w.csv"
          --out "${WORK}/s3_online_loss_t${threads}.csv"
          --policy s3-online --model "${WORK}/model.txt" ${TOPO}
          --replicas 1 --snapshot-every 64
          --fault-plan "${WORK}/controller_loss.txt" --fault-seed 9
          --threads ${threads})
  expect_sha256(s3_online_loss_t${threads}
                "${WORK}/s3_online_loss_t${threads}.csv"
                ${GOLDEN_s3_online_loss})
endforeach()

# --- s3_ties --------------------------------------------------------------
# A campus large enough that the order Algorithm 1's feasible sort leaves
# among equal-cost distributions reaches the output: swapping its
# std::sort for std::stable_sort moves both hashes below and none of the
# 400-user ones above. 8 buildings x 12 APs, 1,200 users over 6 days, a
# text model trained from the LLF run.

set(TIES_TOPO --buildings 8 --aps 12)
run_cli(generate --out "${WORK}/ties_w.csv" --users 1200 --days 6
        ${TIES_TOPO} --seed 7)
run_cli(replay --in "${WORK}/ties_w.csv" --out "${WORK}/ties_collected.csv"
        --policy llf ${TIES_TOPO} --threads 1)
run_cli(train --in "${WORK}/ties_collected.csv"
        --out "${WORK}/ties_model.txt" ${TIES_TOPO})

set(GOLDEN_s3_ties
  3348acfc09fa828f87c8f9c0f66621d59f6c5f480b9c28de4606132aa07b6729)
set(GOLDEN_s3_online_ties
  8a37058f98dc1aaab75e3873ee1a3f867b373b645a654a2a0669913203d0ad5b)

foreach(threads 1 4)
  run_cli(replay --in "${WORK}/ties_w.csv"
          --out "${WORK}/s3_ties_t${threads}.csv"
          --policy s3 --model "${WORK}/ties_model.txt" ${TIES_TOPO}
          --threads ${threads})
  expect_sha256(s3_ties_t${threads} "${WORK}/s3_ties_t${threads}.csv"
                ${GOLDEN_s3_ties})

  run_cli(replay --in "${WORK}/ties_w.csv"
          --out "${WORK}/s3_online_ties_t${threads}.csv"
          --policy s3-online --model "${WORK}/ties_model.txt" ${TIES_TOPO}
          --threads ${threads})
  expect_sha256(s3_online_ties_t${threads}
                "${WORK}/s3_online_ties_t${threads}.csv"
                ${GOLDEN_s3_online_ties})
endforeach()
