#include "layout/cell_io.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace dot::layout {
namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

Layer layer_by_name(const std::string& name, int line_no) {
  for (int i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer_name(layer) == name) return layer;
  }
  throw util::InvalidInputError("cell text line " + std::to_string(line_no) +
                                ": unknown layer '" + name + "'");
}

}  // namespace

std::string to_text(const CellLayout& cell) {
  std::ostringstream os;
  os << "cell " << cell.name() << '\n';
  for (const auto& shape : cell.shapes()) {
    os << "shape " << layer_name(shape.layer) << ' ' << num(shape.rect.x_lo)
       << ' ' << num(shape.rect.y_lo) << ' ' << num(shape.rect.x_hi) << ' '
       << num(shape.rect.y_hi);
    if (!shape.net.empty()) os << ' ' << shape.net;
    os << '\n';
  }
  for (const auto& well : cell.nwells()) {
    os << "nwell " << num(well.x_lo) << ' ' << num(well.y_lo) << ' '
       << num(well.x_hi) << ' ' << num(well.y_hi) << '\n';
  }
  for (const auto& tap : cell.taps()) {
    os << "tap " << tap.net << ' ' << tap.device << ' ' << tap.terminal
       << ' ' << num(tap.at.x) << ' ' << num(tap.at.y) << ' '
       << layer_name(tap.layer) << '\n';
  }
  for (const auto& mos : cell.mos_regions()) {
    os << "mos " << mos.device << ' ' << num(mos.channel.x_lo) << ' '
       << num(mos.channel.y_lo) << ' ' << num(mos.channel.x_hi) << ' '
       << num(mos.channel.y_hi) << ' ' << mos.gate_net << ' '
       << mos.source_net << ' ' << mos.drain_net << ' '
       << (mos.in_nwell ? 1 : 0) << '\n';
  }
  return os.str();
}

CellLayout parse_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  std::string cell_name = "unnamed";
  std::vector<std::vector<std::string>> records;
  std::vector<int> record_lines;

  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;
    if (tokens[0] == "cell") {
      if (tokens.size() != 2)
        throw util::InvalidInputError("cell text line " +
                                      std::to_string(line_no) +
                                      ": cell needs a name");
      cell_name = tokens[1];
      continue;
    }
    records.push_back(std::move(tokens));
    record_lines.push_back(line_no);
  }

  CellLayout cell(cell_name);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const auto& t = records[r];
    const int ln = record_lines[r];
    auto need = [&](std::size_t n) {
      if (t.size() < n)
        throw util::InvalidInputError("cell text line " +
                                      std::to_string(ln) +
                                      ": too few fields for " + t[0]);
    };
    auto number = [&](const std::string& token) {
      try {
        return std::stod(token);
      } catch (...) {
        throw util::InvalidInputError("cell text line " +
                                      std::to_string(ln) + ": bad number '" +
                                      token + "'");
      }
    };
    auto integer = [&](const std::string& token) {
      const double v = number(token);
      if (!(v >= std::numeric_limits<int>::min() &&
            v <= std::numeric_limits<int>::max()))
        throw util::InvalidInputError("cell text line " +
                                      std::to_string(ln) +
                                      ": bad integer '" + token + "'");
      return static_cast<int>(v);
    };
    if (t[0] == "shape") {
      need(6);
      Shape shape;
      shape.layer = layer_by_name(t[1], ln);
      shape.rect = Rect{number(t[2]), number(t[3]), number(t[4]),
                        number(t[5])};
      if (t.size() > 6) shape.net = t[6];
      cell.add_shape(std::move(shape));
    } else if (t[0] == "nwell") {
      need(5);
      cell.add_nwell(
          Rect{number(t[1]), number(t[2]), number(t[3]), number(t[4])});
    } else if (t[0] == "tap") {
      need(7);
      Tap tap;
      tap.net = t[1];
      tap.device = t[2];
      tap.terminal = integer(t[3]);
      tap.at = {number(t[4]), number(t[5])};
      tap.layer = layer_by_name(t[6], ln);
      cell.add_tap(std::move(tap));
    } else if (t[0] == "mos") {
      need(10);
      MosRegion mos;
      mos.device = t[1];
      mos.channel = Rect{number(t[2]), number(t[3]), number(t[4]),
                         number(t[5])};
      mos.gate_net = t[6];
      mos.source_net = t[7];
      mos.drain_net = t[8];
      mos.in_nwell = number(t[9]) != 0.0;
      cell.add_mos_region(std::move(mos));
    } else {
      throw util::InvalidInputError("cell text line " + std::to_string(ln) +
                                    ": unknown record '" + t[0] + "'");
    }
  }
  return cell;
}

}  // namespace dot::layout
