// The DC bench of the four macros a tester observes as quiescent
// operating points (ladder, bias generator, clock generator, decoder):
// a macro netlist driven into each of the bench's drive states, one
// golden operating point per state, and the one solve loop that reuses
// them for faulty netlists. The transient macros share
// DecisionGridBench (comparator_sim.hpp) the same way.
#pragma once

#include <functional>
#include <vector>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"

namespace dot::flashadc {

/// `drive(macro, state)` wraps a (possibly faulty) macro netlist with
/// the tester's sources and loads for drive state 0..states-1.
struct DcBench {
  int states = 1;
  std::function<spice::Netlist(const spice::Netlist&, int state)> drive;
};

/// Fault-free solver state computed once per campaign and shared
/// (read-only) by all workers: the golden MNA map (every state shares
/// state 0's node layout), one golden operating point per state and the
/// solver options plus state 0's sparse symbolic analysis.
struct DcContext {
  std::size_t node_count = 0;  ///< Node count of the driven golden bench.
  spice::MnaMap map;
  std::vector<std::vector<double>> golden;
  spice::SolverSeed solver;
};

/// Solves every drive state of the fault-free macro cold, through one
/// SolverContext. Throws util::ConvergenceError when a state has no
/// operating point.
DcContext make_dc_context(const DcBench& bench, const spice::Netlist& macro,
                          const spice::SolverOptions& solver = {});

/// Receives one converged drive state: the driven netlist, its MNA map
/// and the operating point.
using DcReader =
    std::function<void(int state, const spice::Netlist& driven,
                       const spice::MnaMap& map, const std::vector<double>& x)>;

/// Solves the drive states in order, handing each operating point to
/// `read`, and returns false at the first state without one. With a
/// context, a netlist that keeps the golden node count reuses the golden
/// map and warm-starts from that state's golden point; every state runs
/// through one SolverContext seeded from the context. A null context
/// solves cold with default options.
bool solve_dc(const DcBench& bench, const spice::Netlist& macro,
              const DcContext* context, const DcReader& read);

}  // namespace dot::flashadc
