#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "fault/model.hpp"
#include "spice/dc.hpp"
#include "spice/netlist.hpp"
#include "util/error.hpp"

namespace dot::fault {
namespace {

CircuitFault make_short(const std::string& a, const std::string& b,
                        BridgeMaterial mat = BridgeMaterial::kMetal) {
  CircuitFault f;
  f.kind = FaultKind::kShort;
  f.nets = {std::min(a, b), std::max(a, b)};
  f.material = mat;
  return f;
}

TEST(FaultKey, EqualFaultsShareKey) {
  EXPECT_EQ(make_short("a", "b").key(), make_short("b", "a").key());
  EXPECT_NE(make_short("a", "b").key(), make_short("a", "c").key());
  EXPECT_NE(make_short("a", "b").key(),
            make_short("a", "b", BridgeMaterial::kPoly).key());
}

TEST(FaultKey, KindAndDeviceDistinguish) {
  CircuitFault gos;
  gos.kind = FaultKind::kGateOxidePinhole;
  gos.device = "M1";
  CircuitFault gos2 = gos;
  gos2.device = "M2";
  EXPECT_NE(gos.key(), gos2.key());
  CircuitFault sd = gos;
  sd.kind = FaultKind::kShortedDevice;
  EXPECT_NE(gos.key(), sd.key());
}

TEST(FaultKey, OpenTapPartitionDistinguishes) {
  CircuitFault o1;
  o1.kind = FaultKind::kOpen;
  o1.nets = {"n"};
  o1.isolated_taps = {{"M1", 0}};
  CircuitFault o2 = o1;
  o2.isolated_taps = {{"M1", 0}, {"M2", 1}};
  EXPECT_NE(o1.key(), o2.key());
}

TEST(Model, VariantAndNoncatSupport) {
  CircuitFault gos;
  gos.kind = FaultKind::kGateOxidePinhole;
  EXPECT_EQ(model_variant_count(gos), 3);
  EXPECT_FALSE(supports_noncatastrophic(gos));
  const auto sh = make_short("a", "b");
  EXPECT_EQ(model_variant_count(sh), 1);
  EXPECT_TRUE(supports_noncatastrophic(sh));
}

spice::Netlist divider() {
  spice::Netlist n;
  n.add_vsource("V1", "top", "0", spice::SourceSpec::dc(10.0));
  n.add_resistor("R1", "top", "mid", 1000.0);
  n.add_resistor("R2", "mid", "0", 1000.0);
  return n;
}

TEST(Model, MetalShortBridgesNets) {
  const auto good = divider();
  const auto bad = apply_fault(good, make_short("mid", "top"),
                               FaultModelOptions{});
  const spice::MnaMap map(bad);
  const auto result = dc_operating_point(bad, map);
  // 0.2 Ohm bridge pulls "mid" almost to "top".
  EXPECT_GT(map.voltage(result.x, *bad.find_node("mid")), 9.9);
}

TEST(Model, MaterialSelectsResistance) {
  const auto good = divider();
  FaultModelOptions opt;
  auto resistance_of = [&](BridgeMaterial m) {
    const auto bad = apply_fault(good, make_short("mid", "top", m), opt);
    const auto* dev = bad.find_device("FLTR_1");
    return std::get<spice::Resistor>(*dev).ohms;
  };
  EXPECT_DOUBLE_EQ(resistance_of(BridgeMaterial::kMetal),
                   opt.metal_short_ohms);
  EXPECT_DOUBLE_EQ(resistance_of(BridgeMaterial::kPoly), opt.poly_short_ohms);
  EXPECT_DOUBLE_EQ(resistance_of(BridgeMaterial::kDiffusion),
                   opt.diffusion_short_ohms);
}

TEST(Model, NonCatastrophicAddsRcPair) {
  const auto good = divider();
  FaultModelOptions opt;
  const auto bad = apply_fault(good, make_short("mid", "top"), opt, 0,
                               /*non_catastrophic=*/true);
  ASSERT_NE(bad.find_device("FLTR_1"), nullptr);
  ASSERT_NE(bad.find_device("FLTC_1"), nullptr);
  EXPECT_DOUBLE_EQ(std::get<spice::Resistor>(*bad.find_device("FLTR_1")).ohms,
                   opt.noncat_ohms);
  EXPECT_DOUBLE_EQ(
      std::get<spice::Capacitor>(*bad.find_device("FLTC_1")).farads,
      opt.noncat_farads);
}

TEST(Model, MultiNetShortMakesStar) {
  spice::Netlist n = divider();
  n.add_resistor("R3", "mid", "x", 500.0);
  CircuitFault f;
  f.kind = FaultKind::kShort;
  f.nets = {"mid", "top", "x"};
  f.material = BridgeMaterial::kMetal;
  const auto bad = apply_fault(n, f, FaultModelOptions{});
  EXPECT_NE(bad.find_device("FLTR_1"), nullptr);
  EXPECT_NE(bad.find_device("FLTR_2"), nullptr);
}

TEST(Model, ShortOnUnknownNetThrows) {
  const auto good = divider();
  EXPECT_THROW(apply_fault(good, make_short("mid", "nonexistent"),
                           FaultModelOptions{}),
               util::InvalidInputError);
}

spice::Netlist nmos_circuit() {
  spice::Netlist n;
  n.add_vsource("VDD", "vdd", "0", spice::SourceSpec::dc(5.0));
  n.add_vsource("VG", "g", "0", spice::SourceSpec::dc(0.0));
  n.add_resistor("RD", "vdd", "d", 10e3);
  n.add_mosfet("M1", spice::MosType::kNmos, "d", "g", "0", "0", 4e-6, 1e-6,
               spice::MosModel{});
  return n;
}

TEST(Model, GateOxideVariantsBridgeDifferentTerminals) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kGateOxidePinhole;
  f.device = "M1";
  FaultModelOptions opt;
  // Variant 0: gate-source; variant 1: gate-drain; variant 2: channel.
  const auto v0 = apply_fault(good, f, opt, 0);
  EXPECT_NE(v0.find_device("FLTR_gos_s"), nullptr);
  const auto v1 = apply_fault(good, f, opt, 1);
  EXPECT_NE(v1.find_device("FLTR_gos_d"), nullptr);
  const auto v2 = apply_fault(good, f, opt, 2);
  EXPECT_NE(v2.find_device("FLTR_gos_ch"), nullptr);
  EXPECT_NE(v2.find_device("FLTR_ch_s"), nullptr);
  EXPECT_THROW(apply_fault(good, f, opt, 3), util::InvalidInputError);
}

TEST(Model, GateOxideChangesOperatingPoint) {
  // With the gate grounded, a gate-drain pinhole pulls the drain down
  // through RD; the fault-free drain sits at VDD.
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kGateOxidePinhole;
  f.device = "M1";
  const auto bad = apply_fault(good, f, FaultModelOptions{}, 1);
  const spice::MnaMap gmap(good), bmap(bad);
  const auto g = dc_operating_point(good, gmap);
  const auto b = dc_operating_point(bad, bmap);
  EXPECT_GT(gmap.voltage(g.x, *good.find_node("d")), 4.9);
  EXPECT_LT(bmap.voltage(b.x, *bad.find_node("d")), 2.0);
}

TEST(Model, OpenSplitsDeviceTerminalOffNode) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kOpen;
  f.nets = {"d"};
  f.isolated_taps = {{"M1", 0}};  // drain terminal disconnected
  const auto bad = apply_fault(good, f, FaultModelOptions{});
  const auto& mos = std::get<spice::Mosfet>(*bad.find_device("M1"));
  EXPECT_NE(mos.drain, *bad.find_node("d"));
  // RD still connects to the original "d" node.
  const auto& rd = std::get<spice::Resistor>(*bad.find_device("RD"));
  EXPECT_EQ(rd.b, *bad.find_node("d"));
}

TEST(Model, OpenSkipsPinTapsAndChecksTerminals) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kOpen;
  f.nets = {"d"};
  f.isolated_taps = {{"pin", 0}, {"M1", 0}};
  const auto bad = apply_fault(good, f, FaultModelOptions{});
  EXPECT_NE(std::get<spice::Mosfet>(*bad.find_device("M1")).drain,
            *bad.find_node("d"));

  CircuitFault wrong = f;
  wrong.isolated_taps = {{"M1", 2}};  // source is on net "0", not "d"
  EXPECT_THROW(apply_fault(good, wrong, FaultModelOptions{}),
               util::InvalidInputError);
}

TEST(Model, JunctionPinholeLeaksToRail) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kJunctionPinhole;
  f.nets = {"d"};
  f.to_vdd = false;
  FaultModelOptions opt;
  const auto bad = apply_fault(good, f, opt);
  const auto& r = std::get<spice::Resistor>(*bad.find_device("FLTR_jp"));
  EXPECT_DOUBLE_EQ(r.ohms, opt.pinhole_ohms);
  EXPECT_EQ(r.b, spice::kGround);

  CircuitFault fw = f;
  fw.to_vdd = true;
  const auto bad2 = apply_fault(good, fw, opt);
  EXPECT_EQ(std::get<spice::Resistor>(*bad2.find_device("FLTR_jp")).b,
            *bad2.find_node("vdd"));
}

TEST(Model, NewDeviceInsertsParasiticMos) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kNewDevice;
  f.nets = {"d", "vdd"};
  f.gate_net = "g";
  const auto bad = apply_fault(good, f, FaultModelOptions{});
  const auto* dev = bad.find_device("FLTM_new");
  ASSERT_NE(dev, nullptr);
  const auto& mos = std::get<spice::Mosfet>(*dev);
  EXPECT_EQ(mos.type, spice::MosType::kNmos);
  EXPECT_EQ(mos.gate, *bad.find_node("g"));
}

TEST(Model, ShortedDeviceBridgesChannel) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kShortedDevice;
  f.device = "M1";
  FaultModelOptions opt;
  const auto bad = apply_fault(good, f, opt);
  const auto& r = std::get<spice::Resistor>(*bad.find_device("FLTR_sd"));
  EXPECT_DOUBLE_EQ(r.ohms, opt.shorted_device_ohms);
  // With the gate off, the bridge still pulls the drain low.
  const spice::MnaMap map(bad);
  const auto result = dc_operating_point(bad, map);
  EXPECT_LT(map.voltage(result.x, *bad.find_node("d")), 0.1);
}

TEST(Model, NoncatOnNonShortThrows) {
  const auto good = nmos_circuit();
  CircuitFault f;
  f.kind = FaultKind::kOpen;
  f.nets = {"d"};
  f.isolated_taps = {{"M1", 0}};
  EXPECT_THROW(apply_fault(good, f, FaultModelOptions{}, 0, true),
               util::InvalidInputError);
}

}  // namespace
}  // namespace dot::fault
