#include "spice/netlist.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dot::spice {

Netlist::Netlist() {
  node_names_.push_back("0");
  node_ids_.emplace("0", kGround);
  node_ids_.emplace("gnd", kGround);
}

NodeId Netlist::node(const std::string& name) {
  auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_ids_.emplace(name, id);
  return id;
}

std::optional<NodeId> Netlist::find_node(const std::string& name) const {
  auto it = node_ids_.find(name);
  if (it == node_ids_.end()) return std::nullopt;
  return it->second;
}

NodeId Netlist::make_internal_node(const std::string& hint) {
  for (;;) {
    const std::string candidate =
        "_" + hint + "#" + std::to_string(internal_counter_++);
    if (!node_ids_.count(candidate)) return node(candidate);
  }
}

const std::string& Netlist::node_name(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= node_names_.size())
    throw util::InvalidInputError("node_name: bad node id");
  return node_names_[static_cast<std::size_t>(id)];
}

void Netlist::check_fresh_name(const std::string& name) const {
  if (name.empty())
    throw util::InvalidInputError("device name must not be empty");
  if (device_index_.count(name))
    throw util::InvalidInputError("duplicate device name: " + name);
}

void Netlist::add_resistor(const std::string& name, const std::string& a,
                           const std::string& b, double ohms) {
  if (ohms <= 0.0)
    throw util::InvalidInputError("resistor " + name +
                                  ": resistance must be positive");
  add_device(Resistor{name, node(a), node(b), ohms});
}

void Netlist::add_capacitor(const std::string& name, const std::string& a,
                            const std::string& b, double farads) {
  if (farads <= 0.0)
    throw util::InvalidInputError("capacitor " + name +
                                  ": capacitance must be positive");
  add_device(Capacitor{name, node(a), node(b), farads});
}

void Netlist::add_vsource(const std::string& name, const std::string& pos,
                          const std::string& neg, SourceSpec spec) {
  add_device(VoltageSource{name, node(pos), node(neg), std::move(spec)});
}

void Netlist::add_mosfet(const std::string& name, MosType type,
                         const std::string& drain, const std::string& gate,
                         const std::string& source, const std::string& bulk,
                         double w, double l, const MosModel& model) {
  if (w <= 0.0 || l <= 0.0)
    throw util::InvalidInputError("mosfet " + name +
                                  ": W and L must be positive");
  add_device(Mosfet{name, type, node(drain), node(gate), node(source),
                    node(bulk), w, l, model});
}

void Netlist::add_device(Device device) {
  const std::string& name = device_name(device);
  check_fresh_name(name);
  for (NodeId n : terminal_nodes(device)) {
    if (n < 0 || static_cast<std::size_t>(n) >= node_names_.size())
      throw util::InvalidInputError("device " + name + ": unknown node id");
  }
  device_index_.emplace(name, devices_.size());
  devices_.push_back(std::move(device));
}

void Netlist::append_renamed(
    const Netlist& other, const std::string& device_prefix,
    const std::function<std::string(const std::string&)>& map_net) {
  for (const Device& source : other.devices()) {
    Device copy = source;
    std::visit([&](auto& d) { d.name = device_prefix + d.name; }, copy);
    const auto nodes = terminal_nodes(source);
    for (std::size_t t = 0; t < nodes.size(); ++t) {
      const std::string& old_name = other.node_name(nodes[t]);
      set_terminal_node(copy, static_cast<int>(t), node(map_net(old_name)));
    }
    add_device(std::move(copy));
  }
}

const Device* Netlist::find_device(const std::string& name) const {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : &devices_[it->second];
}

Device* Netlist::find_device(const std::string& name) {
  auto it = device_index_.find(name);
  return it == device_index_.end() ? nullptr : &devices_[it->second];
}

std::vector<NodeId> Netlist::terminal_nodes(const Device& device) {
  struct Visitor {
    std::vector<NodeId> operator()(const Resistor& d) const {
      return {d.a, d.b};
    }
    std::vector<NodeId> operator()(const Capacitor& d) const {
      return {d.a, d.b};
    }
    std::vector<NodeId> operator()(const VoltageSource& d) const {
      return {d.pos, d.neg};
    }
    std::vector<NodeId> operator()(const Mosfet& d) const {
      return {d.drain, d.gate, d.source, d.bulk};
    }
  };
  return std::visit(Visitor{}, device);
}

void Netlist::set_terminal_node(Device& device, int index, NodeId node) {
  auto assign = [index, node](std::initializer_list<NodeId*> slots) {
    if (index < 0 || static_cast<std::size_t>(index) >= slots.size())
      throw util::InvalidInputError("set_terminal_node: bad terminal index");
    **(slots.begin() + index) = node;
  };
  std::visit(
      [&](auto& d) {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Resistor> ||
                      std::is_same_v<T, Capacitor>) {
          assign({&d.a, &d.b});
        } else if constexpr (std::is_same_v<T, VoltageSource>) {
          assign({&d.pos, &d.neg});
        } else {
          static_assert(std::is_same_v<T, Mosfet>);
          assign({&d.drain, &d.gate, &d.source, &d.bulk});
        }
      },
      device);
}

}  // namespace dot::spice
