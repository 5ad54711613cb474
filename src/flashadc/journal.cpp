#include "flashadc/journal.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dot::flashadc {

using util::JsonValue;
using util::JsonWriter;

namespace {

// Schema 2 added the campaign selection + bank size to the meta record
// (a bank journal must never resume into a comparator campaign or into
// a bank of a different height). Schema 3 added the checksum of every
// macro and class record (see with_checksum). Schema 4 dropped the
// solver mode with its knob: system size alone picks the LU.
constexpr int kJournalSchema = 4;

/// FNV-1a (64 bit) of `bytes` as 16 lowercase hex digits.
std::string checksum(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Appends the checksum of a record's canonical encoding (a JSON object
/// without the checksum) as its last key, "sum". A reader re-encodes the
/// decoded record and compares (verify_checksum), so a corruption that
/// still parses -- a flipped digit in a count or an attempt number -- is
/// refused instead of resumed or merged into a different report.
std::string with_checksum(std::string record) {
  const std::string sum = checksum(record);
  record.pop_back();
  return record + ",\"sum\":\"" + sum + "\"}";
}

/// Throws ShardError unless `record`'s "sum" is the checksum of
/// `canonical`, its values re-encoded.
void verify_checksum(const JsonValue& record, const std::string& canonical,
                     const std::string& path, std::size_t index,
                     const std::string& macro) {
  if (record.get("sum").as_string() != checksum(canonical))
    throw util::ShardError("journal " + path + ": record checksum mismatch",
                           index, macro);
}

/// Campaign identity stored in the journal's meta record; a resumed or
/// merged journal must agree with the live configuration on every field
/// that determines the deterministic class list and its outcomes.
/// (Retry budgets and timeouts are deliberately absent: changing them
/// between resume runs is legitimate.)
struct MetaInfo {
  int schema = kJournalSchema;
  std::uint64_t seed = 0;
  std::size_t defect_count = 0;
  int envelope_samples = 0;
  std::size_t max_classes = 0;
  bool with_noncatastrophic = true;
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  std::string campaign = "all";
  int bank_size = 64;
};

MetaInfo meta_of(const CampaignConfig& config) {
  MetaInfo m;
  m.seed = config.seed;
  m.defect_count = config.defect_count;
  m.envelope_samples = config.envelope_samples;
  m.max_classes = config.max_classes;
  m.with_noncatastrophic = config.with_noncatastrophic;
  m.shard_count = config.resilience.shard_count;
  m.shard_index = config.resilience.shard_index;
  m.campaign = resolve_selection(config);
  // The one column-height field does double duty: it carries the chip
  // slice count for chip campaigns (schema unchanged; the campaign
  // field disambiguates which knob it mirrors).
  m.bank_size = m.campaign == "chip" ? config.chip_slices : config.bank_size;
  return m;
}

std::string encode_meta(const MetaInfo& m) {
  JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value("meta");
  w.key("schema");
  w.value(m.schema);
  w.key("seed");
  w.value(static_cast<std::size_t>(m.seed));
  w.key("defect_count");
  w.value(m.defect_count);
  w.key("envelope_samples");
  w.value(m.envelope_samples);
  w.key("max_classes");
  w.value(m.max_classes);
  w.key("with_noncatastrophic");
  w.value(m.with_noncatastrophic);
  w.key("shard_count");
  w.value(m.shard_count);
  w.key("shard_index");
  w.value(m.shard_index);
  w.key("campaign");
  w.value(m.campaign);
  w.key("bank_size");
  w.value(m.bank_size);
  w.end_object();
  return w.str();
}

MetaInfo decode_meta(const JsonValue& v, const std::string& path) {
  MetaInfo m;
  m.schema = static_cast<int>(v.get("schema").as_size());
  if (m.schema != kJournalSchema)
    throw util::ShardError("journal " + path + " has schema " +
                           std::to_string(m.schema) + " (expected " +
                           std::to_string(kJournalSchema) + ")");
  m.seed = v.get("seed").as_size();
  m.defect_count = v.get("defect_count").as_size();
  m.envelope_samples = static_cast<int>(v.get("envelope_samples").as_size());
  m.max_classes = v.get("max_classes").as_size();
  m.with_noncatastrophic = v.get("with_noncatastrophic").as_bool();
  m.shard_count = v.get("shard_count").as_size();
  m.shard_index = v.get("shard_index").as_size();
  m.campaign = v.get("campaign").as_string();
  m.bank_size = static_cast<int>(v.get("bank_size").as_size());
  if (m.shard_count == 0 || m.shard_index >= m.shard_count)
    throw util::ShardError("journal " + path + " has shard index " +
                           std::to_string(m.shard_index) + " of " +
                           std::to_string(m.shard_count));
  return m;
}

/// First field (other than shard_index, optionally) on which the two
/// campaign identities disagree; empty when compatible.
std::string meta_mismatch(const MetaInfo& a, const MetaInfo& b,
                          bool compare_shard_index) {
  if (a.seed != b.seed) return "seed";
  if (a.defect_count != b.defect_count) return "defect_count";
  if (a.envelope_samples != b.envelope_samples) return "envelope_samples";
  if (a.max_classes != b.max_classes) return "max_classes";
  if (a.with_noncatastrophic != b.with_noncatastrophic)
    return "with_noncatastrophic";
  if (a.shard_count != b.shard_count) return "shard_count";
  if (compare_shard_index && a.shard_index != b.shard_index)
    return "shard_index";
  if (a.campaign != b.campaign) return "campaign";
  if (a.campaign == "bank" && a.bank_size != b.bank_size) return "bank_size";
  if (a.campaign == "chip" && a.bank_size != b.bank_size)
    return "chip_slices";
  return {};
}

/// Per-macro sprinkling statistics: everything write_macro (report.cpp)
/// emits besides the outcomes themselves.
struct MacroMeta {
  double cell_area = 0.0;
  std::size_t instances = 1;
  std::size_t defects_sprinkled = 0;
  std::size_t faults_extracted = 0;
  std::size_t fault_classes = 0;

  bool operator==(const MacroMeta&) const = default;
};

MacroMeta macro_meta_of(const MacroCampaignResult& r) {
  return {r.cell_area, r.instance_count, r.defects.defects_sprinkled,
          r.defects.faults_extracted, r.defects.classes.size()};
}

/// Canonical macro record (without its checksum).
std::string encode_macro(const std::string& name, const MacroMeta& m) {
  JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value("macro");
  w.key("macro");
  w.value(name);
  w.key("cell_area_um2");
  w.value(m.cell_area);
  w.key("instances");
  w.value(m.instances);
  w.key("defects_sprinkled");
  w.value(m.defects_sprinkled);
  w.key("faults_extracted");
  w.value(m.faults_extracted);
  w.key("fault_classes");
  w.value(m.fault_classes);
  w.end_object();
  return w.str();
}

/// Decodes a macro record and checks its checksum.
MacroMeta decode_macro(const JsonValue& v, const std::string& path) {
  MacroMeta m;
  m.cell_area = v.get("cell_area_um2").as_number();
  m.instances = v.get("instances").as_size();
  m.defects_sprinkled = v.get("defects_sprinkled").as_size();
  m.faults_extracted = v.get("faults_extracted").as_size();
  m.fault_classes = v.get("fault_classes").as_size();
  const std::string& name = v.get("macro").as_string();
  verify_checksum(v, encode_macro(name, m), path, util::kNoClassIndex, name);
  return m;
}

/// Rejects a record object carrying a key outside `known`: a damaged
/// key name must not read as an absent optional field (a class record
/// whose "non_catastrophic" key is corrupted would otherwise restore
/// the class with that pass missing).
void check_keys(const JsonValue& v,
                std::initializer_list<std::string_view> known) {
  for (const auto& member : v.members())
    if (std::find(known.begin(), known.end(), member.first) == known.end())
      throw util::InvalidInputError("journal: unknown key '" + member.first +
                                    "'");
}

void encode_outcome(JsonWriter& w, const FaultOutcome& o) {
  w.begin_object();
  w.key("kind");
  w.value(fault::fault_kind_name(o.cls.representative.kind));
  w.key("nets");
  w.begin_array();
  for (const auto& net : o.cls.representative.nets) w.value(net);
  w.end_array();
  if (!o.cls.representative.device.empty()) {
    w.key("device");
    w.value(o.cls.representative.device);
  }
  w.key("count");
  w.value(o.cls.count);
  w.key("voltage_signature");
  w.value(macro::voltage_signature_name(o.voltage));
  w.key("current");
  w.begin_object();
  w.key("ivdd");
  w.value(o.current.ivdd);
  w.key("iddq");
  w.value(o.current.iddq);
  w.key("iinput");
  w.value(o.current.iinput);
  w.end_object();
  w.key("detection");
  w.begin_object();
  w.key("missing_code");
  w.value(o.detection.missing_code);
  w.key("ivdd");
  w.value(o.detection.ivdd);
  w.key("iddq");
  w.value(o.detection.iddq);
  w.key("iinput");
  w.value(o.detection.iinput);
  w.end_object();
  w.key("status");
  w.value(o.status == EvalStatus::kOk ? "ok" : "unresolved");
  w.key("attempts");
  w.value(o.attempts);
  if (!o.failure.empty()) {
    w.key("failure");
    w.value(o.failure);
  }
  w.end_object();
}

FaultOutcome decode_outcome(const JsonValue& v, bool non_catastrophic) {
  check_keys(v, {"kind", "nets", "device", "count", "voltage_signature",
                 "current", "detection", "status", "attempts", "failure"});
  FaultOutcome o;
  o.cls.representative.kind =
      fault::parse_fault_kind(v.get("kind").as_string());
  for (const auto& net : v.get("nets").items())
    o.cls.representative.nets.push_back(net.as_string());
  if (const JsonValue* device = v.find("device"))
    o.cls.representative.device = device->as_string();
  o.cls.count = v.get("count").as_size();
  o.non_catastrophic = non_catastrophic;
  o.voltage =
      macro::parse_voltage_signature(v.get("voltage_signature").as_string());
  const JsonValue& current = v.get("current");
  o.current.ivdd = current.get("ivdd").as_bool();
  o.current.iddq = current.get("iddq").as_bool();
  o.current.iinput = current.get("iinput").as_bool();
  const JsonValue& detection = v.get("detection");
  o.detection.missing_code = detection.get("missing_code").as_bool();
  o.detection.ivdd = detection.get("ivdd").as_bool();
  o.detection.iddq = detection.get("iddq").as_bool();
  o.detection.iinput = detection.get("iinput").as_bool();
  const std::string& status = v.get("status").as_string();
  if (status == "ok")
    o.status = EvalStatus::kOk;
  else if (status == "unresolved")
    o.status = EvalStatus::kUnresolved;
  else
    throw util::InvalidInputError("journal: unknown class status: " + status);
  o.attempts = static_cast<int>(v.get("attempts").as_size());
  if (const JsonValue* failure = v.find("failure"))
    o.failure = failure->as_string();
  return o;
}

/// Canonical class record (without its checksum).
std::string encode_class(const std::string& macro, std::size_t index,
                         const std::optional<FaultOutcome>& cat,
                         const std::optional<FaultOutcome>& noncat) {
  JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value("class");
  w.key("macro");
  w.value(macro);
  w.key("index");
  w.value(index);
  if (cat) {
    w.key("catastrophic");
    encode_outcome(w, *cat);
  }
  if (noncat) {
    w.key("non_catastrophic");
    encode_outcome(w, *noncat);
  }
  w.end_object();
  return w.str();
}

/// Decodes a class record and checks its checksum.
ClassRecord decode_class(const JsonValue& v, const std::string& path) {
  check_keys(v, {"type", "macro", "index", "catastrophic", "non_catastrophic",
                 "sum"});
  ClassRecord record;
  record.index = v.get("index").as_size();
  if (const JsonValue* cat = v.find("catastrophic"))
    record.catastrophic = decode_outcome(*cat, false);
  if (const JsonValue* noncat = v.find("non_catastrophic"))
    record.noncatastrophic = decode_outcome(*noncat, true);
  const std::string& macro = v.get("macro").as_string();
  verify_checksum(v,
                  encode_class(macro, record.index, record.catastrophic,
                               record.noncatastrophic),
                  path, record.index, macro);
  return record;
}

const std::string& checked_journal_path(const CampaignConfig& config) {
  const ResilienceOptions& r = config.resilience;
  if (r.journal_path.empty())
    throw util::InvalidInputError("campaign journal: empty path");
  if (r.shard_count == 0 || r.shard_index >= r.shard_count)
    throw util::ShardError("shard index " + std::to_string(r.shard_index) +
                           " out of range for " +
                           std::to_string(r.shard_count) + " shards");
  return r.journal_path;
}

}  // namespace

CampaignJournal::CampaignJournal(const CampaignConfig& config)
    : writer_(checked_journal_path(config), config.resilience.resume,
              std::max<std::size_t>(1, config.resilience.checkpoint_block)),
      observer_(config.resilience.journal_observer) {
  const MetaInfo live = meta_of(config);
  if (config.resilience.resume) {
    const util::JournalContents contents = util::read_journal(writer_.path());
    bool meta_seen = false;
    for (const JsonValue& record : contents.records) {
      const std::string& type = record.get("type").as_string();
      if (type == "meta") {
        const MetaInfo stored = decode_meta(record, writer_.path());
        const std::string mismatch = meta_mismatch(stored, live, true);
        if (!mismatch.empty())
          throw util::ShardError("journal " + writer_.path() +
                                 " was written by a different campaign "
                                 "(mismatched " +
                                 mismatch + "); refusing to resume");
        meta_seen = true;
      } else if (type == "macro") {
        decode_macro(record, writer_.path());
        macros_recorded_.insert(record.get("macro").as_string());
      } else if (type == "class") {
        ClassRecord decoded = decode_class(record, writer_.path());
        const std::size_t index = decoded.index;
        const std::string& macro = record.get("macro").as_string();
        // A duplicated class id means the journal was corrupted or
        // concatenated from different runs; restoring either copy
        // silently would hide that.
        if (!restored_[macro].emplace(index, std::move(decoded)).second)
          throw util::ShardError("journal " + writer_.path() +
                                     ": duplicate class record",
                                 index, macro);
      } else {
        throw util::ShardError("journal " + writer_.path() +
                               ": unknown record type '" + type + "'");
      }
    }
    if (!contents.records.empty() && !meta_seen)
      throw util::ShardError("journal " + writer_.path() +
                             " has no meta record; refusing to resume");
    if (contents.records.empty()) writer_.append(encode_meta(live));
  } else {
    writer_.append(encode_meta(live));
  }
}

void CampaignJournal::record_macro(const MacroCampaignResult& result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!macros_recorded_.insert(result.macro_name).second) return;
  }
  const std::string line =
      with_checksum(encode_macro(result.macro_name, macro_meta_of(result)));
  if (observer_) observer_(line);
  writer_.append(line);
}

void CampaignJournal::record_class(const std::string& macro, std::size_t index,
                                   const std::optional<FaultOutcome>& cat,
                                   const std::optional<FaultOutcome>& noncat) {
  const std::string line =
      with_checksum(encode_class(macro, index, cat, noncat));
  if (observer_) observer_(line);
  writer_.append(line);
}

const ClassRecord* CampaignJournal::completed(const std::string& macro,
                                              std::size_t index) const {
  const auto macro_it = restored_.find(macro);
  if (macro_it == restored_.end()) return nullptr;
  const auto class_it = macro_it->second.find(index);
  return class_it == macro_it->second.end() ? nullptr : &class_it->second;
}

std::size_t CampaignJournal::resumed_classes() const {
  std::size_t total = 0;
  for (const auto& [macro, classes] : restored_) total += classes.size();
  return total;
}

void CampaignJournal::close() { writer_.close(); }

GlobalResult merge_shard_journals(const std::vector<std::string>& paths) {
  if (paths.empty())
    throw util::ShardError("merge: no shard journals given");

  bool have_meta = false;
  MetaInfo first;
  std::set<std::size_t> shards_seen;
  std::map<std::string, MacroMeta> macro_meta;
  std::map<std::string, std::map<std::size_t, ClassRecord>> classes;
  /// macro -> class index -> shard that first contributed the record,
  /// so an overlapping shard set is reported with BOTH offenders.
  std::map<std::string, std::map<std::size_t, std::size_t>> class_shard;

  for (const std::string& path : paths) {
    const util::JournalContents contents = util::read_journal(path);
    if (contents.records.empty())
      throw util::ShardError("merge: journal " + path +
                             " is empty or missing");
    // Pass 1: bind this journal's shard identity before touching its
    // records, so every record-level diagnostic can name the shard.
    bool meta_seen = false;
    std::size_t shard_index = 0;
    for (const JsonValue& record : contents.records) {
      if (record.get("type").as_string() != "meta") continue;
      const MetaInfo meta = decode_meta(record, path);
      if (!have_meta) {
        first = meta;
        have_meta = true;
      } else {
        const std::string mismatch = meta_mismatch(first, meta, false);
        if (!mismatch.empty())
          throw util::ShardError("merge: journal " + path +
                                 " belongs to a different campaign "
                                 "(mismatched " +
                                 mismatch + ")");
      }
      shard_index = meta.shard_index;
      if (!shards_seen.insert(shard_index).second)
        throw util::ShardError("merge: duplicate journal for shard " +
                               std::to_string(shard_index));
      meta_seen = true;
    }
    if (!meta_seen)
      throw util::ShardError("merge: journal " + path + " has no meta record");

    // Pass 2: fold the records.
    for (const JsonValue& record : contents.records) {
      const std::string& type = record.get("type").as_string();
      if (type == "meta") {
        continue;  // consumed by pass 1
      } else if (type == "macro") {
        const std::string& name = record.get("macro").as_string();
        const MacroMeta meta = decode_macro(record, path);
        const auto [it, inserted] = macro_meta.emplace(name, meta);
        if (!inserted && !(it->second == meta))
          throw util::ShardError(
              "merge: journals disagree on macro statistics", util::kNoClassIndex,
              name);
      } else if (type == "class") {
        const std::string& name = record.get("macro").as_string();
        ClassRecord decoded = decode_class(record, path);
        const std::size_t index = decoded.index;
        if (!classes[name].emplace(index, std::move(decoded)).second) {
          const std::size_t other = class_shard[name][index];
          throw util::ShardError(
              "merge: duplicate class record: shard " + std::to_string(other) +
                  " and shard " + std::to_string(shard_index) +
                  " both contributed it (overlapping shard ownership)",
              index, name);
        }
        class_shard[name][index] = shard_index;
      } else {
        throw util::ShardError("merge: journal " + path +
                               ": unknown record type '" + type + "'");
      }
    }
  }

  if (shards_seen.size() != first.shard_count)
    throw util::ShardError(
        "merge: incomplete shard set: have " +
        std::to_string(shards_seen.size()) + " journal(s) of " +
        std::to_string(first.shard_count) + " shards");

  // Canonical macro order (journal record order is nondeterministic);
  // unknown macro names -- future campaigns -- follow alphabetically.
  std::vector<std::string> order;
  for (const std::string& name : campaign_macros())
    if (macro_meta.count(name) != 0) order.push_back(name);
  for (const auto& [name, meta] : macro_meta)
    if (std::find(order.begin(), order.end(), name) == order.end())
      order.push_back(name);

  for (const auto& [name, records] : classes)
    if (macro_meta.count(name) == 0)
      throw util::ShardError("merge: class records without a macro record",
                             util::kNoClassIndex, name);

  std::vector<MacroCampaignResult> macros;
  for (const std::string& name : order) {
    const MacroMeta& meta = macro_meta.at(name);
    MacroCampaignResult result;
    result.macro_name = name;
    result.cell_area = meta.cell_area;
    result.instance_count = meta.instances;
    result.defects.defects_sprinkled = meta.defects_sprinkled;
    result.defects.faults_extracted = meta.faults_extracted;
    // Only the class count survives the journal (the representatives of
    // evaluated classes ride on the outcomes); sized so reports derived
    // from the merge agree with reports from the live run.
    result.defects.classes.resize(meta.fault_classes);
    const auto records_it = classes.find(name);
    if (records_it != classes.end()) {
      for (auto& [index, record] : records_it->second) {
        if (record.catastrophic)
          result.catastrophic.push_back(std::move(*record.catastrophic));
        if (record.noncatastrophic)
          result.noncatastrophic.push_back(std::move(*record.noncatastrophic));
      }
    }
    macros.push_back(std::move(result));
  }
  return compile_global(std::move(macros));
}

}  // namespace dot::flashadc
