#include "util/shutdown.hpp"

#include <csignal>

namespace dot::util {

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_shutdown_signal(int sig) {
  g_signal = sig;
  // One signal asks nicely; a second one must work even if the campaign
  // never reaches a poll point, so fall back to the default disposition.
  std::signal(sig, SIG_DFL);
}

}  // namespace

void arm_shutdown_handler() {
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
}

bool shutdown_requested() { return g_signal != 0; }

int shutdown_signal() { return static_cast<int>(g_signal); }

int shutdown_exit_status() {
  return g_signal == 0 ? 0 : 128 + static_cast<int>(g_signal);
}

}  // namespace dot::util
