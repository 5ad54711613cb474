#include "util/journal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace dot::util {

JournalWriter::JournalWriter(std::string path, bool preserve_existing,
                             std::size_t checkpoint_block)
    : path_(std::move(path)),
      block_(checkpoint_block == 0 ? 1 : checkpoint_block) {
  if (preserve_existing) {
    JournalContents existing = read_journal(path_);
    records_ = std::move(existing.lines);
    // A dropped truncated tail means the on-disk file still carries the
    // partial record; rewrite immediately so the file is well-formed
    // from here on.
    if (existing.truncated_tail) checkpoint();
  }
}

JournalWriter::~JournalWriter() {
  try {
    close();
  } catch (...) {
    // Destructor flush is best-effort; checked shutdown goes via close().
  }
}

void JournalWriter::append(const std::string& json_record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(json_record);
  if (++unflushed_ >= block_) checkpoint_locked();
}

void JournalWriter::checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  checkpoint_locked();
}

void JournalWriter::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (unflushed_ > 0 || records_.empty()) checkpoint_locked();
}

void JournalWriter::checkpoint_locked() {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw InvalidInputError("journal: cannot open " + tmp + " for writing");
    for (const auto& record : records_) out << record << '\n';
    out.flush();
    if (!out) throw InvalidInputError("journal: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0)
    throw InvalidInputError("journal: cannot rename " + tmp + " over " +
                            path_);
  unflushed_ = 0;
}

JournalContents read_journal(const std::string& path) {
  JournalContents contents;
  std::ifstream in(path);
  if (!in) return contents;  // missing journal = nothing completed yet

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    lines.push_back(line);
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    try {
      contents.records.push_back(parse_json(lines[i]));
      contents.lines.push_back(lines[i]);
    } catch (const InvalidInputError& e) {
      if (i + 1 == lines.size()) {
        // Incomplete final record: the write it belonged to never
        // finished. Completed work before it is intact.
        contents.truncated_tail = true;
        return contents;
      }
      throw InvalidInputError("journal: corrupt record " +
                              std::to_string(i + 1) + " in " + path + ": " +
                              e.what());
    }
  }
  return contents;
}

}  // namespace dot::util
