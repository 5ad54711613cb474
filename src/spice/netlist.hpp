// Value-semantic netlist: a node name table plus a list of devices.
//
// Fault injection (src/fault) copies a good netlist and edits the copy
// (inserting bridge resistors, splitting nodes, adding parasitic
// devices), so cheap copying and stable device names are part of the
// contract here.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/devices.hpp"

namespace dot::spice {

class Netlist {
 public:
  Netlist();

  /// Returns the id for a named node, creating it if necessary.
  /// "0" and "gnd" both map to ground.
  NodeId node(const std::string& name);

  /// Looks up an existing node; returns nullopt if absent.
  std::optional<NodeId> find_node(const std::string& name) const;

  /// Creates a fresh node with a unique generated name (used when a
  /// fault model splits a net). `hint` seeds the generated name.
  NodeId make_internal_node(const std::string& hint);

  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const { return node_names_.size(); }

  // -- Device construction helpers (names must be unique). --------------
  void add_resistor(const std::string& name, const std::string& a,
                    const std::string& b, double ohms);
  void add_capacitor(const std::string& name, const std::string& a,
                     const std::string& b, double farads);
  void add_vsource(const std::string& name, const std::string& pos,
                   const std::string& neg, SourceSpec spec);
  void add_mosfet(const std::string& name, MosType type,
                  const std::string& drain, const std::string& gate,
                  const std::string& source, const std::string& bulk,
                  double w, double l, const MosModel& model);

  /// Adds an already-built device; checks name uniqueness and node ids.
  void add_device(Device device);

  /// Appends a copy of every device in `other`, prefixing device names
  /// with `device_prefix` and renaming each terminal's node through
  /// `map_net` (old name -> new name; "0" must map to a ground alias to
  /// stay ground). Used by procedural generators that stamp a sub-cell
  /// repeatedly into a composite netlist.
  void append_renamed(
      const Netlist& other, const std::string& device_prefix,
      const std::function<std::string(const std::string&)>& map_net);

  const std::vector<Device>& devices() const { return devices_; }
  std::vector<Device>& devices() { return devices_; }

  /// Pointer to the named device, or nullptr (invalidated by add).
  const Device* find_device(const std::string& name) const;
  Device* find_device(const std::string& name);

  /// The node list of a device in canonical terminal order.
  static std::vector<NodeId> terminal_nodes(const Device& device);
  /// Rebinds terminal `index` of `device` to `node`.
  static void set_terminal_node(Device& device, int index, NodeId node);

 private:
  void check_fresh_name(const std::string& name) const;

  std::vector<std::string> node_names_;  // index = NodeId
  std::unordered_map<std::string, NodeId> node_ids_;
  std::vector<Device> devices_;
  std::unordered_map<std::string, std::size_t> device_index_;
  int internal_counter_ = 0;
};

}  // namespace dot::spice
