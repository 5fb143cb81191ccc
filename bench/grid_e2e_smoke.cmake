# Runs the grid_e2e benchmark binary on a tiny instance of each workload and
# fails unless every run exits 0 (its correctness checks all passed).
#
#   cmake -DGRID_E2E=<path to grid_e2e> -P bench/grid_e2e_smoke.cmake
if(NOT GRID_E2E)
  message(FATAL_ERROR "grid_e2e_smoke: pass -DGRID_E2E=<binary>")
endif()
foreach(workload batch_backlog wide_grid console_watchers)
  execute_process(
    COMMAND ${GRID_E2E} --workload ${workload} --seed 1 --scale tiny
            --seconds 0.1 --trace 0
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "grid_e2e_smoke: ${workload} exited ${status}\n${out}${err}")
  endif()
  message(STATUS "grid_e2e_smoke: ${workload} ok")
endforeach()
