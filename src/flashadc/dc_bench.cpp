#include "flashadc/dc_bench.hpp"

#include "spice/dc.hpp"
#include "util/error.hpp"

namespace dot::flashadc {

DcContext make_dc_context(const DcBench& bench, const spice::Netlist& macro,
                          const spice::SolverOptions& solver) {
  DcContext ctx;
  ctx.solver.options = solver;
  spice::SolverContext solve_ctx(solver);
  for (int state = 0; state < bench.states; ++state) {
    const spice::Netlist n = bench.drive(macro, state);
    if (state == 0) {
      ctx.node_count = n.node_count();
      ctx.map = spice::MnaMap(n);
    }
    ctx.golden.push_back(
        dc_operating_point(n, ctx.map, {}, nullptr, &solve_ctx).x);
  }
  ctx.solver.symbolic = solve_ctx.shared_symbolic();
  return ctx;
}

bool solve_dc(const DcBench& bench, const spice::Netlist& macro,
              const DcContext* context, const DcReader& read) {
  spice::SolverContext solver(context ? context->solver
                                      : spice::SolverSeed{});
  for (int state = 0; state < bench.states; ++state) {
    const spice::Netlist n = bench.drive(macro, state);
    // Faults that only bridge existing nets keep the node layout, so the
    // golden map applies verbatim; node splits and parasitic devices add
    // nodes and force a rebuild (and a cold solve).
    const bool reuse = context && n.node_count() == context->node_count;
    const spice::MnaMap local_map = reuse ? spice::MnaMap() : spice::MnaMap(n);
    const spice::MnaMap& map = reuse ? context->map : local_map;
    const std::vector<double>* warm =
        reuse ? &context->golden[static_cast<std::size_t>(state)] : nullptr;
    std::vector<double> x;
    try {
      x = dc_operating_point(n, map, {}, warm, &solver).x;
    } catch (const util::ConvergenceError&) {
      return false;
    }
    read(state, n, map, x);
  }
  return true;
}

}  // namespace dot::flashadc
