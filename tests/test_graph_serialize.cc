/**
 * @file
 * Tests for graph text serialization: hand-written documents, round
 * trips over the model zoo, and malformed-input rejection.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strutil.h"
#include "compiler/session.h"
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
        {"[1, 4]", R"("op": "reshape", "inputs": ["x"],
                      "dims": [1000000000000000000, 1000000000000000000])"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 4611686018427387904)"},
        // A window larger than the padded input used to round to a
        // 1x1 output.
        {"[1, 3, 8, 8]", R"("op": "maxpool2d", "inputs": ["x"],
                            "kernel": 16)"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 4, "kernel": 11,
                            "padding": 1)"},
        {"[1, 16]", R"("op": "linear", "inputs": ["x"],
                       "out_features": 9223372036854774784)"},
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

/** A one-input graph of node "n" with @p node_members; @p input_dims is
 * the input's dims. */
std::string
oneNodeGraph(const std::string &input_dims, const std::string &node_members)
{
    return strformat(R"({
        "inputs": [{"name": "x", "dims": %s}],
        "nodes": [{"name": "n", %s}],
        "outputs": ["n"]
    })", input_dims.c_str(), node_members.c_str());
}

// Each of these used to load with the member at its default: a quoted
// "true" built a matmul without the transpose.
TEST(GraphSerializeTest, MistypedMembersAreErrors)
{
    const struct {
        const char *dims;
        const char *members;
        const char *message;
    } cases[] = {
        {"[1, 4, 4]",
         R"("op": "matmul", "inputs": ["x", "x"], "transpose_rhs": "true")",
         "graph node 'n' key 'transpose_rhs' must be a bool"},
        {"[1, 4]", R"("op": 7, "inputs": ["x"])",
         "graph node key 'op' must be a string"},
        {"[1, 4]", R"("op": "relu", "inputs": [3])",
         "graph node 'n' key 'inputs' must be a string"},
        {"[1, 4]", R"("op": "linear", "inputs": ["x"], "out_features": "2")",
         "graph node 'n' key 'out_features' must be an integer in int64 "
         "range"},
    };
    for (const auto &c : cases) {
        const auto graph = graphFromText(oneNodeGraph(c.dims, c.members));
        ASSERT_FALSE(graph.isOk()) << c.members;
        EXPECT_EQ(graph.status().code(), StatusCode::kParseError);
        EXPECT_EQ(graph.status().message(), c.message);
    }
    const auto name = graphFromText(R"({"name": 5,
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "relu", "name": "n", "inputs": ["x"]}],
        "outputs": ["n"]})");
    EXPECT_EQ(name.status().message(), "graph key 'name' must be a string");
    const auto output = graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [{"op": "relu", "name": "n", "inputs": ["x"]}],
        "outputs": [true]})");
    EXPECT_EQ(output.status().message(),
              "graph key 'outputs' must be a string");
    const auto input_name = graphFromText(R"({
        "inputs": [{"name": ["x"], "dims": [1, 4]}],
        "nodes": [], "outputs": ["x"]})");
    EXPECT_EQ(input_name.status().message(),
              "graph input key 'name' must be a string");
}

TEST(GraphSerializeTest, UnknownKeysAreErrors)
{
    const struct {
        const char *dims;
        const char *members;
        const char *key;
    } cases[] = {
        // A node takes the attributes its op reads, and no others.
        {"[1, 4]", R"("op": "relu", "inputs": ["x"], "kernel": 3)",
         "kernel"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 4, "kernal": 3)",
         "kernal"},
        {"[1, 4, 4]", R"("op": "matmul", "inputs": ["x", "x"],
                         "transpose": true)",
         "transpose"},
        {"[1, 4]", R"("op": "linear", "inputs": ["x"], "out_features": 2,
                      "stride": 1)",
         "stride"},
    };
    for (const auto &c : cases) {
        const auto graph = graphFromText(oneNodeGraph(c.dims, c.members));
        ASSERT_FALSE(graph.isOk()) << c.members;
        EXPECT_EQ(graph.status().code(), StatusCode::kParseError);
        EXPECT_EQ(graph.status().message(),
                  strformat("graph node 'n' has unknown key '%s'", c.key));
    }
    EXPECT_EQ(graphFromText(R"({"inputs": [{"name": "x", "dims": [1, 4]}],
        "nodes": [], "outputs": ["x"], "output": ["x"]})")
                  .status()
                  .message(),
              "graph has unknown key 'output'");
    EXPECT_EQ(graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 4], "dtype": "int8"}],
        "nodes": [], "outputs": ["x"]})")
                  .status()
                  .message(),
              "graph input has unknown key 'dtype'");
}

// Every bundled model's dump still loads with the typed reader and the
// unknown-key check.
TEST(GraphSerializeTest, EveryBundledModelLoads)
{
    for (const std::string &model : models::availableModels()) {
        const ConfigValue doc = graphToConfig(models::byName(model));
        auto loaded = graphFromConfig(doc);
        ASSERT_TRUE(loaded.isOk())
            << model << ": " << loaded.status().toString();
        EXPECT_EQ(graphToConfig(loaded.value()).dump(false), doc.dump(false));
    }
}

// An input whose element count wraps int64 used to compile to a 0 pJ
// report with exit 0.
TEST(GraphSerializeTest, InputElementCountMustFitInt64)
{
    for (const char *dims : {"[65536, 65536, 65536, 65536]",
                             "[1, 1000000000000000000, 1000000000000000000]"}) {
        const auto graph = graphFromText(
            oneNodeGraph(dims, R"("op": "relu", "inputs": ["x"])"));
        ASSERT_FALSE(graph.isOk()) << dims;
        EXPECT_EQ(graph.status().message(),
                  "input 'x': element count overflows int64");
    }
}

// Two nodes of 2^62 weights each fit int64 one by one, but their sum
// used to overflow in the load stage's weight count; a gelu's four ALU
// ops per element overflowed in the cost model.
TEST(GraphSerializeTest, GraphTotalsMustFitInt64)
{
    const auto gelu = graphFromText(oneNodeGraph(
        "[1, 3458764513820540928]", R"("op": "gelu", "inputs": ["x"])"));
    ASSERT_FALSE(gelu.isOk());
    EXPECT_EQ(gelu.status().message(),
              "graph node 'n': ALU op count overflows int64");

    const auto graph = graphFromText(R"({
        "inputs": [{"name": "x", "dims": [1, 2]}],
        "nodes": [{"op": "linear", "name": "a", "inputs": ["x"],
                   "out_features": 2305843009213693952},
                  {"op": "linear", "name": "b", "inputs": ["x"],
                   "out_features": 2305843009213693952}],
        "outputs": ["a", "b"]})");
    ASSERT_FALSE(graph.isOk());
    EXPECT_NE(graph.status().message().find(
                  "total weight or MAC count overflows int64"),
              std::string::npos)
        << graph.status().toString();
}

// The integer rule is "integral and fits int64": every integer
// attribute and dim admits the edges of int64, and each document loads
// as a graph that schedules, or as a Status.
TEST(GraphSerializeTest, IntegerKeysReadToTheEdgesOfInt64)
{
    const struct {
        const char *dims;
        const char *members; // %s: the value under test
    } slots[] = {
        {"[%s, 4]", R"("op": "relu", "inputs": ["x"])"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": %s)"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 2, "kernel": %s)"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 2, "kernel_w": %s)"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 2, "stride": %s)"},
        {"[1, 3, 8, 8]", R"("op": "conv2d", "inputs": ["x"],
                            "out_channels": 2, "padding": %s)"},
        {"[1, 16]", R"("op": "linear", "inputs": ["x"],
                       "out_features": %s)"},
        {"[1, 3, 8, 8]", R"("op": "maxpool2d", "inputs": ["x"],
                            "kernel": %s)"},
        {"[1, 3, 8, 8]", R"("op": "avgpool2d", "inputs": ["x"],
                            "stride": %s)"},
        {"[1, 3, 8, 8]", R"("op": "maxpool2d", "inputs": ["x"],
                            "padding": %s)"},
        {"[1, 4, 4]", R"("op": "matmul", "inputs": ["x", "x"],
                         "heads": %s)"},
        {"[1, 4]", R"("op": "reshape", "inputs": ["x"], "dims": [%s, 4])"},
    };
    for (const auto &slot : slots) {
        for (const char *value :
             {"4611686018427387904", "9223372036854774784",
              "-9223372036854775808", "2147483647", "-2147483648",
              "2147483648", "-2147483649"}) {
            const std::string dims = strformat(slot.dims, value);
            const std::string text = oneNodeGraph(
                dims, strformat(slot.members, value));
            auto graph = graphFromText(text);
            if (!graph.isOk()) {
                EXPECT_FALSE(graph.status().message().empty()) << text;
                continue;
            }
            EXPECT_TRUE(graph.value().validate().isOk()) << text;
            CompileRequest request;
            request.graph = &graph.value();
            request.arch = "jain";
            request.stop_after = CompileStage::kSchedule;
            auto compiled = CompilerSession(std::move(request)).run();
            if (!compiled.isOk()) {
                EXPECT_FALSE(compiled.status().message().empty()) << text;
            }
        }
        // Past int64 is a parse error, not a cast.
        const auto past = graphFromText(oneNodeGraph(
            strformat(slot.dims, "9223372036854775808"),
            strformat(slot.members, "9223372036854775808")));
        ASSERT_FALSE(past.isOk()) << slot.members;
        EXPECT_EQ(past.status().code(), StatusCode::kParseError);
        EXPECT_NE(past.status().message().find("int64 range"),
                  std::string::npos)
            << past.status().toString();
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
