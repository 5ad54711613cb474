// Heap-allocation count of the transient Newton driver: once a run is
// under way, an accepted time step allocates the state it records and
// nothing else. The counter replaces the global operator new/delete of
// this test binary only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "spice/transient.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dot {
namespace {

TEST(NewtonAllocations, AcceptedStepAllocatesOnlyTheRecordedState) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.009);
  spice::TranStepper stepper(bench, flashadc::comparator_tran_options());
  stepper.start(stepper.solve_dc().x);
  // The first steps freeze the transient stream, capture its stamp
  // program and grow the Newton buffers to the system size.
  for (int i = 0; i < 3; ++i) stepper.step();
  std::size_t steps = 0;
  while (!stepper.done()) {
    const std::size_t before = g_allocations.load();
    stepper.step();
    EXPECT_EQ(g_allocations.load() - before, 1u) << "step " << steps;
    ++steps;
  }
  EXPECT_GT(steps, 300u);
  const spice::TranResult result = stepper.finish(0);
  EXPECT_EQ(result.steps(), steps + 4);
}

}  // namespace
}  // namespace dot
