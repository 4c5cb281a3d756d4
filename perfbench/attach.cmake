# Included right after the top-level project() call (run.py passes
# -DCMAKE_PROJECT_INCLUDE=perfbench/attach.cmake). Deferring the include to
# the end of the top-level CMakeLists.txt makes the benchmark inherit every
# compile option and definition set after project(). Deferred arguments are
# expanded when the call runs, hence the variable.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
