# Bench targets are defined from the top-level CMakeLists (via include())
# so that ${CMAKE_BINARY_DIR}/bench contains ONLY runnable binaries —
# `for b in build/bench/*; do $b; done` runs the full harness.

function(ht_add_bench name)
  add_executable(${name} ${PROJECT_SOURCE_DIR}/bench/${name}.cc)
  target_include_directories(${name} PRIVATE ${PROJECT_SOURCE_DIR}/bench)
  target_link_libraries(${name} PRIVATE ht_eval ht_baselines ht_core ht_data
    ht_geometry ht_storage ht_common Threads::Threads)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(ht_add_gbench name)
  ht_add_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

ht_add_bench(bench_table1_splits)
ht_add_bench(bench_fig5ab_eda_vs_vam)
ht_add_bench(bench_fig5c_els_bits)
ht_add_bench(bench_fig6ab_fourier)
ht_add_bench(bench_fig6cd_colhist)
ht_add_bench(bench_fig7ab_dbsize)
ht_add_bench(bench_fig7cd_distance)
ht_add_gbench(bench_micro_intranode)
ht_add_gbench(bench_micro_els)
ht_add_gbench(bench_micro_core)
ht_add_bench(bench_ext_bulkload)
ht_add_bench(bench_ext_knn)
ht_add_bench(bench_throughput)
target_link_libraries(bench_throughput PRIVATE ht_threading)
ht_add_bench(bench_hotpath)
ht_add_bench(bench_quant)
# BENCH_quant.json records the build type it was measured in.
target_compile_definitions(bench_quant PRIVATE
  HT_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
ht_add_bench(bench_recall)
ht_add_bench(bench_io)
ht_add_bench(bench_ingest)
ht_add_bench(bench_serve)
target_link_libraries(bench_serve PRIVATE ht_serve)
ht_add_bench(bench_cache)
