// Cooperative SIGINT/SIGTERM shutdown for long campaigns.
//
// arm_shutdown_handler() installs async-signal-safe handlers that only
// set a flag; the campaign layer polls shutdown_requested() at class
// granularity and skips the remaining work, so an interrupted run still
// flushes its journal and emits a partial report (with an explicit
// `interrupted` marker) instead of dying with unflushed state. A second
// signal restores the default disposition, so a wedged run can still be
// killed the hard way.
#pragma once

namespace dot::util {

/// Installs the SIGINT/SIGTERM handlers. Idempotent; call once near the
/// top of main() in long-running binaries.
void arm_shutdown_handler();

/// True once a shutdown signal arrived. Cheap enough for per-class
/// polling in campaign loops.
bool shutdown_requested();

/// The signal that triggered shutdown (0 when none); callers exit with
/// the conventional 128 + signal.
int shutdown_signal();

/// Exit status for an interrupted run: 128 + signal, or 0 when no
/// shutdown was requested.
int shutdown_exit_status();

}  // namespace dot::util
