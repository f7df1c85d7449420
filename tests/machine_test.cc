/**
 * @file
 * Tests for the NUMA machine model: topology, core enabling and the
 * memory cost model.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"

namespace {

using namespace jscale;
using machine::Machine;
using machine::MachineConfig;

TEST(Machine, PaperPresetTopology)
{
    Machine m(Machine::amd6168_4p48c());
    EXPECT_EQ(m.config().sockets, 4u);
    EXPECT_EQ(m.config().cores_per_socket, 12u);
    EXPECT_EQ(m.cores().size(), 48u);
    EXPECT_DOUBLE_EQ(m.config().freq_ghz, 1.9);
    EXPECT_EQ(m.totalMemory(), 64ULL * units::GiB);
}

TEST(Machine, SocketAssignmentIsCompact)
{
    Machine m(Machine::amd6168_4p48c());
    EXPECT_EQ(m.socketOf(0), 0u);
    EXPECT_EQ(m.socketOf(11), 0u);
    EXPECT_EQ(m.socketOf(12), 1u);
    EXPECT_EQ(m.socketOf(47), 3u);
}

TEST(Machine, EnableCoresFillsCompactly)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(14);
    EXPECT_EQ(m.enabledCores(), 14u);
    EXPECT_EQ(m.enabledSockets(), 2u);
    const auto ids = m.enabledCoreIds();
    ASSERT_EQ(ids.size(), 14u);
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], i);
    EXPECT_TRUE(m.core(13).enabled());
    EXPECT_FALSE(m.core(14).enabled());
}

TEST(Machine, ReEnableShrinks)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(48);
    EXPECT_EQ(m.enabledSockets(), 4u);
    m.enableCores(4);
    EXPECT_EQ(m.enabledCores(), 4u);
    EXPECT_EQ(m.enabledSockets(), 1u);
    EXPECT_FALSE(m.core(4).enabled());
}

TEST(Machine, EnableBoundsChecked)
{
    Machine m(Machine::testMachine_2p8c());
    EXPECT_DEATH(m.enableCores(0), "at least one");
    EXPECT_DEATH(m.enableCores(9), "cannot enable");
}

TEST(Machine, CoreIdBoundsChecked)
{
    Machine m(Machine::testMachine_2p8c());
    EXPECT_DEATH(m.core(8), "out of range");
}

TEST(Machine, CyclesToTicksUsesFrequency)
{
    Machine m(Machine::testMachine_2p8c()); // 2 GHz
    EXPECT_EQ(m.core(0).cyclesToTicks(2000), 1000u);
}

TEST(Machine, MemCopyCostLocalVsRemote)
{
    Machine m(Machine::amd6168_4p48c());
    const Bytes bytes = 1 * units::MiB;
    const Ticks local = m.memCopyCost(0, 0, bytes);
    const Ticks remote = m.memCopyCost(0, 1, bytes);
    EXPECT_GT(local, 0u);
    EXPECT_NEAR(static_cast<double>(remote) / static_cast<double>(local),
                m.config().numa_remote_factor, 0.01);
}

TEST(Machine, MemCopyCostScalesWithBytes)
{
    Machine m(Machine::amd6168_4p48c());
    EXPECT_NEAR(static_cast<double>(m.memCopyCost(0, 0, 2048)),
                2.0 * static_cast<double>(m.memCopyCost(0, 0, 1024)),
                2.0);
}

TEST(Machine, ScatterPlacementSpreadsSockets)
{
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(4, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(m.enabledCores(), 4u);
    EXPECT_EQ(m.enabledSockets(), 4u); // one core per socket
    const auto ids = m.enabledCoreIds();
    EXPECT_EQ(ids, (std::vector<machine::CoreId>{0, 12, 24, 36}));

    m.enableCores(6, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(m.enabledSockets(), 4u);
    EXPECT_EQ(m.enabledCoreIds(),
              (std::vector<machine::CoreId>{0, 1, 12, 13, 24, 36}));
}

TEST(Machine, ScatterEqualsCompactWhenFull)
{
    Machine a(Machine::testMachine_2p8c());
    Machine b(Machine::testMachine_2p8c());
    a.enableCores(8, Machine::EnablePolicy::Compact);
    b.enableCores(8, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(a.enabledCoreIds(), b.enabledCoreIds());
}

/** Enabled ids recounted from the per-core flags. */
std::vector<machine::CoreId>
recountEnabled(const Machine &m)
{
    std::vector<machine::CoreId> ids;
    for (const auto &c : m.cores()) {
        if (c.enabled())
            ids.push_back(c.id());
    }
    return ids;
}

TEST(Machine, EnabledCoreIdsTrackEnableAndOnline)
{
    Machine m(Machine::amd6168_4p48c());
    const auto &ids = m.enabledCoreIds();
    m.enableCores(14);
    EXPECT_EQ(ids, recountEnabled(m));
    EXPECT_EQ(ids.size(), 14u);
    m.enableCores(6, Machine::EnablePolicy::Scatter);
    EXPECT_EQ(ids, recountEnabled(m));
    EXPECT_EQ(ids, (std::vector<machine::CoreId>{0, 1, 12, 13, 24, 36}));

    // Offlining and onlining keep the list ascending and in step.
    EXPECT_TRUE(m.setCoreOnline(12, false));
    EXPECT_EQ(ids, (std::vector<machine::CoreId>{0, 1, 13, 24, 36}));
    EXPECT_TRUE(m.setCoreOnline(5, true));
    EXPECT_EQ(ids, (std::vector<machine::CoreId>{0, 1, 5, 13, 24, 36}));
    EXPECT_TRUE(m.setCoreOnline(5, true)); // already online: no-op
    EXPECT_TRUE(m.setCoreOnline(47, false)); // already offline: no-op
    EXPECT_EQ(ids, recountEnabled(m));
    EXPECT_EQ(m.enabledCores(), 6u);

    // Down to one core; the last one cannot go.
    for (const machine::CoreId id : {0u, 1u, 5u, 13u, 24u})
        EXPECT_TRUE(m.setCoreOnline(id, false));
    EXPECT_FALSE(m.setCoreOnline(36, false));
    EXPECT_EQ(ids, (std::vector<machine::CoreId>{36}));
    EXPECT_EQ(m.enabledCores(), 1u);

    m.enableCores(48, Machine::EnablePolicy::Compact);
    EXPECT_EQ(ids, recountEnabled(m));
    EXPECT_EQ(ids.size(), 48u);
}

/** Enabled-socket count follows compact fill. */
class EnabledSocketsTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(EnabledSocketsTest, MatchesCompactFill)
{
    const auto [cores, sockets] = GetParam();
    Machine m(Machine::amd6168_4p48c());
    m.enableCores(cores);
    EXPECT_EQ(m.enabledSockets(), sockets);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnabledSocketsTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(12u, 1u),
                      std::make_pair(13u, 2u), std::make_pair(24u, 2u),
                      std::make_pair(25u, 3u), std::make_pair(48u, 4u)));

} // namespace
