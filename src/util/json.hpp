// Minimal JSON writer (objects, arrays, strings, numbers, booleans)
// used to export campaign results for downstream tooling, plus the
// matching recursive-descent parser required by the campaign journal
// (checkpoint/resume replay and shard merging read their own output;
// the library still consumes netlists and layouts, not arbitrary JSON).
#pragma once

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dot::util {

/// Streaming JSON writer with correct escaping and comma placement.
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.value("comparator");
///   w.key("faults"); w.begin_array(); w.value(1); w.end_array();
///   w.end_object();
///   std::string out = w.str();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& name);
  void value(const std::string& text);
  void value(const char* text);
  void value(double number);
  void value(std::size_t number);
  void value(int number);
  void value(bool flag);

  std::string str() const { return os_.str(); }

 private:
  void comma();
  void raw(const std::string& text);

  std::ostringstream os_;
  std::vector<bool> need_comma_;
  bool after_key_ = false;
};

/// Escapes a string per JSON rules (quotes included).
std::string json_quote(const std::string& text);

/// Parsed JSON document node. Object member order is preserved (the
/// journal diff tools rely on deterministic re-serialization).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw InvalidInputError on a kind mismatch so
  /// journal readers surface corrupt records with a real message.
  bool as_bool() const;
  double as_number() const;
  std::size_t as_size() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const { return array_.size(); }
  const JsonValue& operator[](std::size_t i) const { return array_[i]; }
  const std::vector<JsonValue>& items() const { return array_; }

  /// Object access: find() returns null when absent, get() throws.
  const JsonValue* find(const std::string& key) const;
  const JsonValue& get(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document (the full text must be consumed apart from
/// trailing whitespace). Throws InvalidInputError with a byte offset on
/// malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace dot::util
