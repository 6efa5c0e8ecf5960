# tools/bench_check behaviour test, run via ctest:
#   1. A candidate matching the baseline exits 0 and prints OK rows.
#   2. A candidate with a >20% slots/sec drop exits 1 and prints FAIL.
#   4. Rows present on only one side degrade to SKIP/NEW notices.
#   5. A fleet whose "rng" tag flipped (legacy <-> stream, the PR 6
#      counter-based arrival streams) SKIPs both its timing and RSS rows:
#      different RNG layouts sample different arrivals.
#   6. A fleet whose process_peak_rss_mib grew beyond --max-rss-growth-pct
#      exits 1 with a FAIL row; growth inside the tolerance stays OK.
#   8. Rows measured with the JSONL event emitter attached carry an
#      "events": true tag (PR 8): when both documents tag their rows the
#      matcher pairs per tag (an events-on regression FAILs while the
#      events-off row stays OK), and a baseline events-on row whose
#      candidate lost the tag SKIPs — emitter on/off is a mode change.
#   10. Rows measured with the departure-aware scheduling mode on carry a
#      "churn_aware": true tag (PR 10): the matcher pairs per tag (a
#      churn-aware regression FAILs while the oblivious row stays OK),
#      and a baseline churn-aware row whose candidate lost the tag SKIPs
#      — the mode runs a different decision rule, not slower code.
# Invoked as: cmake -DBENCH_CHECK=<binary> -P bench_check_test.cmake

if(NOT DEFINED BENCH_CHECK)
  message(FATAL_ERROR "BENCH_CHECK (path to the bench_check binary) not set")
endif()

set(work_dir ${CMAKE_CURRENT_BINARY_DIR}/bench_check_test_docs)
file(MAKE_DIRECTORY ${work_dir})

# Two-row baseline: a plain row and an offline row carrying the
# planner/knapsack_grid tags older documents have (ignored: there is one
# planner on one grid).
file(WRITE ${work_dir}/baseline.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000}\
]}]}\n")

# 1. Identical candidate -> exit 0, OK rows.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/baseline.json
  OUTPUT_VARIABLE ok_out ERROR_VARIABLE ok_err RESULT_VARIABLE ok_rc
)
if(NOT ok_rc EQUAL 0)
  message(FATAL_ERROR "identical documents exited ${ok_rc}:\n${ok_out}${ok_err}")
endif()
if(NOT ok_out MATCHES "OK")
  message(FATAL_ERROR "identical documents printed no OK row:\n${ok_out}")
endif()

# 2. Regressed plain row -> exit 1, FAIL.
file(WRITE ${work_dir}/regressed.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":2.0,\"slots_per_sec\":300.0,\"user_slots_per_sec\":30000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/regressed.json
  OUTPUT_VARIABLE bad_out ERROR_VARIABLE bad_err RESULT_VARIABLE bad_rc
)
if(NOT bad_rc EQUAL 1)
  message(FATAL_ERROR "70% regression exited ${bad_rc} (want 1):\n${bad_out}${bad_err}")
endif()
if(NOT bad_out MATCHES "FAIL")
  message(FATAL_ERROR "regression printed no FAIL row:\n${bad_out}")
endif()

# 4. A candidate missing a baseline row (and adding a new one) degrades to
#    SKIP + NEW notices while the shared rows still gate -> exit 0.
file(WRITE ${work_dir}/regrown.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0}\
]},\
{\"num_users\":200,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":180000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/regrown.json
  OUTPUT_VARIABLE grow_out ERROR_VARIABLE grow_err RESULT_VARIABLE grow_rc
)
if(NOT grow_rc EQUAL 0)
  message(FATAL_ERROR "grid growth exited ${grow_rc} (want 0):\n${grow_out}${grow_err}")
endif()
if(NOT grow_out MATCHES "SKIP" OR NOT grow_out MATCHES "NEW")
  message(FATAL_ERROR "grid growth printed no SKIP/NEW notices:\n${grow_out}")
endif()

# 5. The baseline fleet re-measured under the stream RNG layout must SKIP
#    every row of that fleet (timing and RSS), even with cratered numbers.
#    A second untagged fleet keeps the comparison non-empty -> exit 0.
file(WRITE ${work_dir}/rng_base.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"rng\":\"legacy\",\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0}\
]},\
{\"num_users\":200,\"horizon_slots\":600,\"rng\":\"legacy\",\"wall_seconds\":1.0,\"process_peak_rss_mib\":12.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":180000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
file(WRITE ${work_dir}/rng_flipped.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"rng\":\"stream\",\"wall_seconds\":9.0,\"process_peak_rss_mib\":90.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":5.0,\"slots_per_sec\":100.0,\"user_slots_per_sec\":10000.0,\"updates\":5,\"energy_kj\":1.0}\
]},\
{\"num_users\":200,\"horizon_slots\":600,\"rng\":\"legacy\",\"wall_seconds\":1.0,\"process_peak_rss_mib\":12.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":900.0,\"user_slots_per_sec\":180000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/rng_base.json
          --candidate ${work_dir}/rng_flipped.json
  OUTPUT_VARIABLE rng_out ERROR_VARIABLE rng_err RESULT_VARIABLE rng_rc
)
if(NOT rng_rc EQUAL 0)
  message(FATAL_ERROR "rng-flipped fleet exited ${rng_rc} (want 0 — mode change is not a regression):\n${rng_out}${rng_err}")
endif()
if(NOT rng_out MATCHES "SKIP.*rng layout changed")
  message(FATAL_ERROR "rng-flipped fleet was not SKIPped:\n${rng_out}")
endif()
if(rng_out MATCHES "FAIL")
  message(FATAL_ERROR "rng-flipped fleet FAILed instead of SKIPping:\n${rng_out}")
endif()

# 6a. Peak RSS grown beyond the default 50% tolerance -> exit 1, FAIL,
#     even though every timing row is unchanged.
file(WRITE ${work_dir}/bloated.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":30.0,\"schedulers\":[\
{\"scheduler\":\"Online\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/bloated.json
  OUTPUT_VARIABLE rss_out ERROR_VARIABLE rss_err RESULT_VARIABLE rss_rc
)
if(NOT rss_rc EQUAL 1)
  message(FATAL_ERROR "tripled peak RSS exited ${rss_rc} (want 1):\n${rss_out}${rss_err}")
endif()
if(NOT rss_out MATCHES "FAIL.*peak RSS")
  message(FATAL_ERROR "tripled peak RSS printed no FAIL row:\n${rss_out}")
endif()

# 6b. The same candidate passes when the operator widens the tolerance.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/baseline.json
          --candidate ${work_dir}/bloated.json --max-rss-growth-pct 300
  OUTPUT_VARIABLE wide_out ERROR_VARIABLE wide_err RESULT_VARIABLE wide_rc
)
if(NOT wide_rc EQUAL 0)
  message(FATAL_ERROR "widened RSS tolerance exited ${wide_rc} (want 0):\n${wide_out}${wide_err}")
endif()
if(NOT wide_out MATCHES "OK.*peak RSS")
  message(FATAL_ERROR "widened RSS tolerance printed no OK RSS row:\n${wide_out}")
endif()

# 8a. Both documents carry events-off and events-on rows: the matcher
#     pairs per tag, so a regressed events-on row FAILs while the
#     identical events-off row stays OK.
file(WRITE ${work_dir}/ev_base.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Immediate\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Immediate\",\"seconds\":0.6,\"slots_per_sec\":950.0,\"user_slots_per_sec\":95000.0,\"updates\":5,\"energy_kj\":1.0,\"events\":true}\
]}]}\n")
file(WRITE ${work_dir}/ev_regressed.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Immediate\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0},\
{\"scheduler\":\"Immediate\",\"seconds\":6.0,\"slots_per_sec\":95.0,\"user_slots_per_sec\":9500.0,\"updates\":5,\"energy_kj\":1.0,\"events\":true}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/ev_base.json
          --candidate ${work_dir}/ev_regressed.json
  OUTPUT_VARIABLE ev_out ERROR_VARIABLE ev_err RESULT_VARIABLE ev_rc
)
if(NOT ev_rc EQUAL 1)
  message(FATAL_ERROR "regressed events-on row exited ${ev_rc} (want 1):\n${ev_out}${ev_err}")
endif()
if(NOT ev_out MATCHES "FAIL.*\\+events")
  message(FATAL_ERROR "regressed events-on row printed no FAIL:\n${ev_out}")
endif()
if(NOT ev_out MATCHES "OK  +100 users x 600 slots / Immediate: ")
  message(FATAL_ERROR "identical events-off row was not compared OK:\n${ev_out}")
endif()

# 8b. The candidate re-measured without the emitter: the baseline
#     events-on row pairs tag-blind with the events-off candidate and
#     SKIPs — emitter on/off is a mode change, not a regression. The
#     events-off pair keeps the comparison non-empty -> exit 0.
file(WRITE ${work_dir}/ev_untagged.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Immediate\",\"seconds\":0.5,\"slots_per_sec\":1000.0,\"user_slots_per_sec\":100000.0,\"updates\":5,\"energy_kj\":1.0}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/ev_base.json
          --candidate ${work_dir}/ev_untagged.json
  OUTPUT_VARIABLE evskip_out ERROR_VARIABLE evskip_err RESULT_VARIABLE evskip_rc
)
if(NOT evskip_rc EQUAL 0)
  message(FATAL_ERROR "events-tag-lost candidate exited ${evskip_rc} (want 0):\n${evskip_out}${evskip_err}")
endif()
if(NOT evskip_out MATCHES "SKIP.*event emitter changed")
  message(FATAL_ERROR "events-tag mismatch was not SKIPped:\n${evskip_out}")
endif()
if(evskip_out MATCHES "FAIL")
  message(FATAL_ERROR "events-tag mismatch FAILed instead of SKIPping:\n${evskip_out}")
endif()

# 10a. Both documents carry oblivious and churn-aware rows: the matcher
#      pairs per tag, so a regressed churn-aware row FAILs while the
#      identical oblivious row stays OK.
file(WRITE ${work_dir}/churn_base.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000},\
{\"scheduler\":\"Offline\",\"seconds\":0.6,\"slots_per_sec\":750.0,\"user_slots_per_sec\":75000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000,\"churn_aware\":true}\
]}]}\n")
file(WRITE ${work_dir}/churn_regressed.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000},\
{\"scheduler\":\"Offline\",\"seconds\":6.0,\"slots_per_sec\":75.0,\"user_slots_per_sec\":7500.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000,\"churn_aware\":true}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/churn_base.json
          --candidate ${work_dir}/churn_regressed.json
  OUTPUT_VARIABLE churn_out ERROR_VARIABLE churn_err RESULT_VARIABLE churn_rc
)
if(NOT churn_rc EQUAL 1)
  message(FATAL_ERROR "regressed churn-aware row exited ${churn_rc} (want 1):\n${churn_out}${churn_err}")
endif()
if(NOT churn_out MATCHES "FAIL.*\\+churn")
  message(FATAL_ERROR "regressed churn-aware row printed no FAIL:\n${churn_out}")
endif()
if(NOT churn_out MATCHES "OK  +100 users x 600 slots / Offline: ")
  message(FATAL_ERROR "identical oblivious row was not compared OK:\n${churn_out}")
endif()

# 10b. The candidate re-measured without the mode: the baseline
#      churn-aware row pairs tag-blind with the oblivious candidate and
#      SKIPs — departure-awareness on/off is a mode change, not a
#      regression. The oblivious pair keeps the comparison non-empty.
file(WRITE ${work_dir}/churn_untagged.json
"{\"bench\":\"scale\",\"smoke\":true,\"jobs\":1,\"timing\":\"serial\",\"seed\":1,\"fleets\":[\
{\"num_users\":100,\"horizon_slots\":600,\"wall_seconds\":1.0,\"process_peak_rss_mib\":10.0,\"schedulers\":[\
{\"scheduler\":\"Offline\",\"seconds\":0.5,\"slots_per_sec\":800.0,\"user_slots_per_sec\":80000.0,\"updates\":5,\"energy_kj\":1.0,\"planner\":\"parallel+adaptive\",\"knapsack_grid\":1000}\
]}]}\n")
execute_process(
  COMMAND ${BENCH_CHECK} --baseline ${work_dir}/churn_base.json
          --candidate ${work_dir}/churn_untagged.json
  OUTPUT_VARIABLE chskip_out ERROR_VARIABLE chskip_err RESULT_VARIABLE chskip_rc
)
if(NOT chskip_rc EQUAL 0)
  message(FATAL_ERROR "churn-tag-lost candidate exited ${chskip_rc} (want 0):\n${chskip_out}${chskip_err}")
endif()
if(NOT chskip_out MATCHES "SKIP.*churn-aware mode changed")
  message(FATAL_ERROR "churn-tag mismatch was not SKIPped:\n${chskip_out}")
endif()
if(chskip_out MATCHES "FAIL")
  message(FATAL_ERROR "churn-tag mismatch FAILed instead of SKIPping:\n${chskip_out}")
endif()

message(STATUS "bench_check behaviour test passed")
