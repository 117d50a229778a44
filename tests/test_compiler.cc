/**
 * @file
 * Tests for the Table 1 capability probe and its rendered table.
 */
#include <gtest/gtest.h>

#include "compiler/capability.h"

namespace cimmlc {
namespace {

TEST(CapabilityTest, PriorWorkRowsMatchTable1)
{
    const auto rows = priorWorkCapabilities();
    ASSERT_EQ(rows.size(), 5u);
    // PUMA: ReRAM only, MVM only.
    EXPECT_FALSE(rows[0].sram);
    EXPECT_TRUE(rows[0].reram);
    EXPECT_FALSE(rows[0].vvm);
    EXPECT_TRUE(rows[0].mvm);
    // OCC supports SRAM and VVM but not DNN-operator granularity.
    EXPECT_TRUE(rows[4].sram);
    EXPECT_TRUE(rows[4].vvm);
    EXPECT_FALSE(rows[4].dnn_operator);
}

TEST(CapabilityTest, ProbeDemonstratesFullGenerality)
{
    auto ours = probeCimMlc();
    ASSERT_TRUE(ours.isOk()) << ours.status().toString();
    EXPECT_TRUE(ours.value().sram);
    EXPECT_TRUE(ours.value().reram);
    EXPECT_TRUE(ours.value().misc);
    EXPECT_TRUE(ours.value().vvm);
    EXPECT_TRUE(ours.value().mvm);
    EXPECT_TRUE(ours.value().dnn_operator);
}

TEST(CapabilityTest, TableRendersAllRows)
{
    // Pinned whole, so a changed yes/- mark in any row fails the test.
    constexpr const char *kExpected =
        "+-----------------+------+-------+------+-----+-----+--------+"
        "-------------------------+\n"
        "| compiler        | SRAM | ReRAM | misc | VVM | MVM | DNN op |"
        " granularity             |\n"
        "+=================+======+=======+======+=====+=====+========+"
        "=========================+\n"
        "| PUMA [2,4]      | -    | yes   | -    | -   | yes | -      |"
        " MVM                     |\n"
        "| IMDP [19]       | -    | yes   | -    | yes | yes | -      |"
        " MVM                     |\n"
        "| TC-CIM [17]     | -    | yes   | -    | -   | yes | -      |"
        " MVM                     |\n"
        "| Polyhedral [22] | -    | yes   | -    | -   | yes | yes    |"
        " MVM, MM, Conv           |\n"
        "| OCC [40]        | yes  | yes   | -    | yes | yes | -      |"
        " /                       |\n"
        "+-----------------+------+-------+------+-----+-----+--------+"
        "-------------------------+\n"
        "| CIM-MLC (ours)  | yes  | yes   | yes  | yes | yes | yes    |"
        " VVM, MVM, DNN operators |\n"
        "+-----------------+------+-------+------+-----+-----+--------+"
        "-------------------------+\n";
    auto table = renderCapabilityTable();
    ASSERT_TRUE(table.isOk()) << table.status().toString();
    EXPECT_EQ(table.value(), kExpected);
}

} // namespace
} // namespace cimmlc
