/**
 * @file
 * Tests for graph text serialization: hand-written documents, round
 * trips over the model zoo, and malformed-input rejection.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strutil.h"
#include "graph/models.h"
#include "graph/reference.h"
#include "graph/serialize.h"

namespace cimmlc {
namespace {

constexpr const char *kToyText = R"({
    "name": "toy",
    "inputs": [{"name": "image", "dims": [1, 3, 8, 8]}],
    "nodes": [
        {"op": "conv2d", "name": "conv", "inputs": ["image"],
         "out_channels": 4, "kernel": 3, "stride": 1, "padding": 1},
        {"op": "relu", "name": "act", "inputs": ["conv"]},
        {"op": "maxpool2d", "name": "pool", "inputs": ["act"],
         "kernel": 2, "stride": 2},
        {"op": "flatten", "name": "flat", "inputs": ["pool"]},
        {"op": "linear", "name": "fc", "inputs": ["flat"],
         "out_features": 10}
    ],
    "outputs": ["fc"]
})";

TEST(GraphSerializeTest, ParsesHandWrittenDocument)
{
    auto graph = graphFromText(kToyText);
    ASSERT_TRUE(graph.isOk()) << graph.status().toString();
    const Graph &g = graph.value();
    EXPECT_EQ(g.name(), "toy");
    EXPECT_EQ(g.nodeCount(), 6u); // input + 5 ops
    EXPECT_TRUE(g.validate().isOk());
    EXPECT_EQ(g.tensor(g.outputs()[0]).dims,
              (std::vector<std::int64_t>{1, 10}));
}

TEST(GraphSerializeTest, ParsedGraphExecutes)
{
    auto graph_or = graphFromText(kToyText);
    ASSERT_TRUE(graph_or.isOk());
    Graph g = std::move(graph_or).value();
    Rng rng(3);
    g.randomizeWeights(rng);
    Int8Tensor image(TensorShape({1, 3, 8, 8}));
    image.fillRandom(rng, -10, 10);
    auto result = runReference(g, {{g.inputs()[0], image}});
    EXPECT_TRUE(result.isOk()) << result.status().toString();
}

class GraphRoundTripTest : public testing::TestWithParam<std::string>
{
};

TEST_P(GraphRoundTripTest, SerializeParseSerializeIsStable)
{
    const Graph original = models::byName(GetParam());
    const ConfigValue doc = graphToConfig(original);
    auto restored = graphFromConfig(doc);
    ASSERT_TRUE(restored.isOk())
        << GetParam() << ": " << restored.status().toString();
    const Graph &g = restored.value();
    EXPECT_EQ(g.nodeCount(), original.nodeCount());
    EXPECT_EQ(g.totalWeights(), original.totalWeights());
    EXPECT_EQ(g.totalMacs(), original.totalMacs());
    // Output shapes survive the trip.
    ASSERT_EQ(g.outputs().size(), original.outputs().size());
    for (std::size_t i = 0; i < g.outputs().size(); ++i) {
        EXPECT_EQ(g.tensor(g.outputs()[i]).dims,
                  original.tensor(original.outputs()[i]).dims);
    }
    // A second trip is byte-identical.
    EXPECT_EQ(graphToConfig(g).dump(), doc.dump());
}

INSTANTIATE_TEST_SUITE_P(Zoo, GraphRoundTripTest,
                         testing::Values("lenet5", "macro_cnn", "vgg7",
                                         "resnet18", "vit_tiny",
                                         "conv_relu_toy", "mlp"));

TEST(GraphSerializeTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(graphFromText("[]").isOk());
    EXPECT_FALSE(graphFromText(R"({"inputs": []})").isOk());
    // Unknown op.
    EXPECT_FALSE(graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "teleport", "inputs": ["x"]}],
        "outputs": ["teleport_1"]
    })").isOk());
    // Dangling reference.
    EXPECT_FALSE(graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "relu", "name": "r", "inputs": ["ghost"]}],
        "outputs": ["r"]
    })").isOk());
    // Missing required attribute.
    EXPECT_FALSE(graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "linear", "name": "fc", "inputs": ["x"]}],
        "outputs": ["fc"]
    })").isOk());
    // Duplicate names.
    EXPECT_FALSE(graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "relu", "name": "x", "inputs": ["x"]}],
        "outputs": ["x"]
    })").isOk());
    // Unknown output.
    EXPECT_FALSE(graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "relu", "name": "r", "inputs": ["x"]}],
        "outputs": ["nope"]
    })").isOk());
}

TEST(GraphSerializeTest, DimsMustBeIntegers)
{
    for (const char *bad : {"\"4\"", "4.5", "1e300"}) {
        auto input = graphFromText(strformat(R"({
            "inputs": [{"name": "x", "dims": [1, %s]}],
            "nodes": [{"op": "relu", "name": "r", "inputs": ["x"]}],
            "outputs": ["r"]
        })", bad));
        ASSERT_FALSE(input.isOk()) << bad;
        EXPECT_EQ(input.status().code(), StatusCode::kParseError) << bad;
        auto reshape = graphFromText(strformat(R"({
            "inputs": [{"name": "x", "dims": [1, 4]}],
            "nodes": [{"op": "reshape", "name": "r", "inputs": ["x"],
                       "dims": [%s, 1]}],
            "outputs": ["r"]
        })", bad));
        ASSERT_FALSE(reshape.isOk()) << bad;
        EXPECT_EQ(reshape.status().code(), StatusCode::kParseError)
            << bad;
    }
}

TEST(GraphSerializeTest, IntegerAttributesMustBeIntegers)
{
    const struct {
        const char *op;
        const char *input_dims;
        const char *key;
        const char *other_attrs; // the node's other required attributes
    } slots[] = {
        {"conv2d", "[1, 3, 8, 8]", "out_channels", R"(, "kernel": 3)"},
        {"conv2d", "[1, 3, 8, 8]", "kernel", R"(, "out_channels": 4)"},
        {"conv2d", "[1, 3, 8, 8]", "kernel_w", R"(, "out_channels": 4)"},
        {"conv2d", "[1, 3, 8, 8]", "stride", R"(, "out_channels": 4)"},
        {"conv2d", "[1, 3, 8, 8]", "padding", R"(, "out_channels": 4)"},
        {"linear", "[1, 16]", "out_features", ""},
        {"maxpool2d", "[1, 3, 8, 8]", "kernel", ""},
        {"maxpool2d", "[1, 3, 8, 8]", "stride", ""},
        {"maxpool2d", "[1, 3, 8, 8]", "padding", ""},
        {"matmul", "[1, 4, 4]", "heads", ""},
    };
    const auto document = [](const auto &slot, const char *value) {
        const char *second_input =
            std::string(slot.op) == "matmul" ? R"(, "x")" : "";
        return strformat(R"({
            "inputs": [{"name": "x", "dims": %s}],
            "nodes": [{"op": "%s", "name": "n", "inputs": ["x"%s],
                       "%s": %s%s}],
            "outputs": ["n"]
        })", slot.input_dims, slot.op, second_input, slot.key, value,
                         slot.other_attrs);
    };
    for (const auto &slot : slots) {
        const auto good = graphFromText(document(slot, "1"));
        ASSERT_TRUE(good.isOk()) << slot.op << "." << slot.key << ": "
                                 << good.status().toString();
        for (const char *bad : {"\"2\"", "1.5", "1e300"}) {
            const auto graph = graphFromText(document(slot, bad));
            ASSERT_FALSE(graph.isOk()) << slot.op << "." << slot.key
                                       << " = " << bad;
            EXPECT_EQ(graph.status().code(), StatusCode::kParseError);
            EXPECT_NE(graph.status().message().find(slot.key),
                      std::string::npos)
                << graph.status().toString();
        }
    }
}

// Shape inference on a kvjson graph returns a Status naming the node;
// each of these used to abort the process (and a daemon serving it).
TEST(GraphSerializeTest, ShapeErrorsNameTheNode)
{
    const struct {
        const char *input_dims;
        const char *node; // the op and attributes of node "n"
    } cases[] = {
        {"[1, 4, 3]", R"("op": "matmul", "inputs": ["x", "x"])"},
        {"[1, 4, 3]", R"("op": "matmul", "inputs": ["x"])"},
        {"[4]", R"("op": "matmul", "inputs": ["x", "x"])"},
        {"[1, 4]", R"("op": "add", "inputs": ["x", "c"])"},
        {"[1, 4]", R"("op": "add", "inputs": ["x"])"},
        {"[1, 4]", R"("op": "relu", "inputs": [])"},
        {"[1, 3, 8]",
         R"("op": "conv2d", "inputs": ["x"], "out_channels": 4)"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 4, "stride": 0)"},
        {"[1, 3, 8]", R"("op": "maxpool2d", "inputs": ["x"], "kernel": 2)"},
        {"[1, 3, 8, 8]", R"("op": "avgpool2d", "inputs": ["x"],
                            "kernel": 2, "stride": 0)"},
        {"[1, 3, 8]", R"("op": "globalavgpool", "inputs": ["x"])"},
        {"[4]", R"("op": "linear", "inputs": ["x"], "out_features": 2)"},
        {"[1, 4]", R"("op": "concat", "inputs": ["x", "c"])"},
        {"[4]", R"("op": "concat", "inputs": ["x"])"},
        {"[1, 4]", R"("op": "reshape", "inputs": ["x"], "dims": [1, 5])"},
        {"[1, 4]", R"("op": "reshape", "inputs": [], "dims": [1, 4])"},
        {"[1, 1000000000000000000, 1000000000000000000]",
         R"("op": "flatten", "inputs": ["x"])"},
        {"[1, 1000000000000000000, 1000000000000000000]",
         R"("op": "reshape", "inputs": ["x"], "dims": [1, 1])"},
        {"[1, 4]", R"("op": "reshape", "inputs": ["x"],
                      "dims": [1000000000000000000, 1000000000000000000])"},
        {"[1, 1000000000000000000]",
         R"("op": "concat", "inputs": ["x", "x", "x", "x", "x", "x",
                                       "x", "x", "x", "x"])"},
    };
    for (const auto &c : cases) {
        // "c" is a second input of another shape, for the two-operand ops.
        const std::string text = strformat(R"({
            "inputs": [{"name": "x", "dims": %s},
                       {"name": "c", "dims": [1, 2, 3]}],
            "nodes": [{"name": "n", %s}],
            "outputs": ["n"]
        })", c.input_dims, c.node);
        const auto graph = graphFromText(text);
        ASSERT_FALSE(graph.isOk()) << text;
        EXPECT_NE(graph.status().message().find("node 'n'"),
                  std::string::npos)
            << graph.status().toString();
    }
}

TEST(GraphSerializeTest, RejectedNodeLeavesTheGraphUnchanged)
{
    Graph graph("g");
    const TensorId x = graph.addInput("x", {1, 4, 3});
    auto bad = graph.addNodeChecked(OpKind::kMatMul, MatMulAttrs{}, {x, x},
                                    "n");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().message(),
              "matmul node 'n': inner dims differ (3 vs 4)");
    EXPECT_EQ(graph.nodeCount(), 1u);
    EXPECT_EQ(graph.tensorCount(), 1u);
    EXPECT_TRUE(graph.tensor(x).consumers.empty());
    auto good = graph.addNodeChecked(OpKind::kRelu, std::monostate{}, {x});
    ASSERT_TRUE(good.isOk()) << good.status().toString();
    EXPECT_EQ(graph.tensor(good.value()).dims,
              (std::vector<std::int64_t>{1, 4, 3}));
}

TEST(GraphSerializeTest, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "/cimmlc_graph.json";
    ASSERT_TRUE(saveConfigFile(path, graphToConfig(models::lenet5()))
                    .isOk());
    auto loaded = graphFromFile(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().nodeCount(), models::lenet5().nodeCount());
    EXPECT_FALSE(graphFromFile("/no/such/graph.json").isOk());
}

} // namespace
} // namespace cimmlc
