// Glue between the campaign layer and the dispatch protocol: turns a
// CampaignConfig into the dispatcher's campaign identity + validator,
// and wraps the real campaign evaluator as a dispatch::ShardRunner.
//
// The worker-side runner reuses the whole resilience stack unchanged:
// each assignment seeds a local shard journal (meta record + the
// completed class lines the dispatcher already holds), then runs the
// ordinary run_campaign with resume=true, so restored classes are
// skipped exactly like a crash-resume and only fresh records stream
// back through the journal_observer hook. Two workers handed the same
// assignment therefore emit byte-identical record lines -- the
// property the dispatcher's first-completion-wins dedup relies on.
#pragma once

#include <string>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "dispatch/worker.hpp"
#include "flashadc/campaign.hpp"

namespace dot::flashadc {

/// Dispatcher-side identity/validation/completion fields of a
/// DispatcherConfig, derived from the campaign config. The caller
/// still sets the transport and liveness knobs (journal path, shard
/// count, heartbeat, re-issue budget).
void fill_dispatcher_identity(const CampaignConfig& config,
                              dispatch::DispatcherConfig& out);

/// Worker-side shard runner: evaluates each assignment with the
/// campaign machinery, journaling locally under
/// `journal_dir/shard_<index>.jsonl` (checkpoint interval
/// `journal_sync`; dispatched workers default to 1 so a crashed
/// worker's local journal is as fresh as its record stream). The
/// returned runner is reusable across assignments.
dispatch::ShardRunner make_campaign_runner(const CampaignConfig& config,
                                           const std::string& journal_dir,
                                           std::size_t journal_sync);

}  // namespace dot::flashadc
