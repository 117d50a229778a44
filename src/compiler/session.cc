#include "compiler/session.h"

#include <chrono>
#include <climits>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "arch/presets.h"
#include "arch/serialize.h"
#include "common/logging.h"
#include "common/strutil.h"
#include "common/threadpool.h"
#include "common/version.h"
#include "graph/analysis.h"
#include "graph/models.h"
#include "graph/serialize.h"
#include "mop/printer.h"
#include "perfsim/perf_engine.h"
#include "sched/multi_level.h"

namespace cimmlc {

namespace {

#if defined(__GLIBC__)
// A compile grows the heap by up to hundreds of MiB of statement
// vectors and frees them all when its flow goes. glibc would return
// the top of the heap above its dynamic trim threshold (at most
// 64 MiB) to the kernel, and the next compile in this process would
// fault the same pages back in, zero-filled. Keeping the heap makes
// the next compile reuse it. This runs before main, so before any
// worker thread starts; sanitizer runtimes replace malloc, which
// leaves this a no-op there. A block of 128 KiB or more that the kept
// heap cannot serve is still mapped afresh (DESIGN.md, "Heap reuse
// across compiles").
[[maybe_unused]] const int kHeapKept = mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif

} // namespace

const char *
compileStageName(CompileStage stage)
{
    switch (stage) {
      case CompileStage::kLoad: return "load";
      case CompileStage::kValidate: return "validate";
      case CompileStage::kTune: return "tune";
      case CompileStage::kSchedule: return "schedule";
      case CompileStage::kCodegen: return "codegen";
      case CompileStage::kLint: return "lint";
      case CompileStage::kPerf: return "perf";
      case CompileStage::kVerify: return "verify";
    }
    return "?";
}

StatusOr<ScheduleOptions>
scheduleOptionsByName(const std::string &level)
{
    if (level == "none")
        return ScheduleOptions::none();
    if (level == "cg")
        return ScheduleOptions::cgOnly();
    if (level == "cg+mvm" || level == "mvm")
        return ScheduleOptions::cgMvm();
    if (level == "full")
        return ScheduleOptions::full();
    return invalidArgument("unknown --opt level '" + level + "'");
}

// ----- CompileRequest -------------------------------------------------------

Status
CompileRequest::validate() const
{
    std::vector<std::string> workload_sources;
    if (!model.empty())
        workload_sources.push_back("model");
    if (!model_file.empty())
        workload_sources.push_back("model_file");
    if (!model_text.empty())
        workload_sources.push_back("model_text");
    if (graph != nullptr)
        workload_sources.push_back("graph");
    if (workload_sources.empty())
        return invalidArgument(
            "no workload source (set one of model, model_file, "
            "model_text, graph)");
    if (workload_sources.size() > 1)
        return invalidArgument("conflicting workload sources ("
                               + join(workload_sources, ", ")
                               + "); set exactly one");

    std::vector<std::string> arch_sources;
    if (!arch.empty())
        arch_sources.push_back("arch");
    if (!arch_file.empty())
        arch_sources.push_back("arch_file");
    if (!arch_text.empty())
        arch_sources.push_back("arch_text");
    if (arch_ref != nullptr)
        arch_sources.push_back("arch_ref");
    if (arch_sources.size() > 1)
        return invalidArgument("conflicting architecture sources ("
                               + join(arch_sources, ", ")
                               + "); set at most one");

    if (!options.has_value()) {
        auto parsed = scheduleOptionsByName(opt);
        if (!parsed.isOk())
            return parsed.status();
    }
    if (threads < 0 || threads > kMaxThreads)
        return invalidArgument(
            strformat("threads must be in [0, %d] (0 = hardware "
                      "concurrency)",
                      kMaxThreads));
    if (outputs.flow_limit < 0)
        return invalidArgument("outputs.flow_limit must be >= 0");
    if (workload_prefix_nodes < 0)
        return invalidArgument(
            "workload_prefix_nodes must be >= 0 (0 = whole graph)");
    if (lint_strict && !lint)
        return invalidArgument("lint_strict requires lint");
    if (lint && !outputs.flow)
        return invalidArgument(
            "lint needs the meta-operator flow (outputs.flow)");
    CIMMLC_RETURN_IF_ERROR(
        search_budget.validate().withContext("search_budget"));
    CIMMLC_RETURN_IF_ERROR(host_model.validate().withContext("host_model"));
    return Status::ok();
}

// ----- CompileArtifacts -----------------------------------------------------

std::int64_t
CompileArtifacts::flowStatements() const
{
    return code.has_value() ? code->program.counts().total() : 0;
}

namespace {

ConfigValue
number(double v)
{
    return ConfigValue::makeNumber(v);
}

ConfigValue
number(std::int64_t v)
{
    return ConfigValue::makeNumber(static_cast<double>(v));
}

ConfigValue
text(std::string v)
{
    return ConfigValue::makeString(std::move(v));
}

ConfigValue
optionsToConfig(const ScheduleOptions &options)
{
    ConfigValue::Object knobs;
    knobs["cg_duplication"] = ConfigValue::makeBool(options.cg_duplication);
    knobs["cg_pipeline"] = ConfigValue::makeBool(options.cg_pipeline);
    knobs["mvm_duplication"] =
        ConfigValue::makeBool(options.mvm_duplication);
    knobs["mvm_pipeline"] = ConfigValue::makeBool(options.mvm_pipeline);
    knobs["vvm_remap"] = ConfigValue::makeBool(options.vvm_remap);
    knobs["binding"] = text(options.binding.bit_binding == XbarDim::kXB
                                ? "bits-to-crossbars"
                                : "bits-to-columns");
    knobs["segment_max_nodes"] = number(options.segment_max_nodes);
    knobs["dual_mode"] = ConfigValue::makeBool(options.dual_mode);
    knobs["host_offload"] = ConfigValue::makeBool(options.host_offload);
    knobs["text"] = text(options.toString());
    return ConfigValue::makeObject(std::move(knobs));
}

} // namespace

ConfigValue
CompileArtifacts::toConfig() const
{
    ConfigValue::Object doc;
    doc["schema"] = text("cimmlc.report.v1");
    doc["compiler_version"] = text(cimmlcVersion());

    ConfigValue::Object workload_obj;
    workload_obj["name"] = text(workload);
    workload_obj["nodes"] = number(nodes);
    workload_obj["weights"] = number(weights);
    doc["workload"] = ConfigValue::makeObject(std::move(workload_obj));

    ConfigValue::Object arch_obj;
    arch_obj["name"] = text(arch_name);
    arch_obj["mode"] = text(arch_mode);
    doc["arch"] = ConfigValue::makeObject(std::move(arch_obj));

    ConfigValue::Object config_obj;
    config_obj["options"] = optionsToConfig(options);
    config_obj["tuned"] = ConfigValue::makeBool(tuned);
    doc["config"] = ConfigValue::makeObject(std::move(config_obj));

    if (tune.has_value()) {
        ConfigValue::Object tune_obj;
        tune_obj["objective"] = text(tuneObjectiveName(tune->objective));
        tune_obj["candidates"] =
            number(static_cast<std::int64_t>(tune->candidates.size()));
        tune_obj["best"] = optionsToConfig(tune->best().options);
        tune_obj["speedup_over_default"] =
            number(tune->speedupOverDefault());
        tune_obj["cache_hits"] = number(tune->cache_hits);
        tune_obj["evaluated"] = number(tune->evaluated_count);
        tune_obj["pruned"] = number(tune->pruned_count);
        // The tuner only consumes the evaluation cap; serializing the
        // proxy fields here would suggest halving proxies ran.
        if (tune->budget.enabled())
            tune_obj["budget_evals"] =
                number(tune->budget.max_full_evals);
        doc["tune"] = ConfigValue::makeObject(std::move(tune_obj));
    }

    if (perf.has_value()) {
        ConfigValue::Object perf_obj;
        perf_obj["engine"] = text(perfEngineName(perf->engine));
        perf_obj["latency_cycles"] = number(perf->latency_cycles);
        perf_obj["reload_cycles"] = number(perf->reload_cycles);
        ConfigValue::Object energy;
        energy["total_pj"] = number(perf->energy.total());
        energy["xbar_pj"] = number(perf->energy.xbar_pj);
        energy["adc_dac_pj"] = number(perf->energy.adc_dac_pj);
        energy["movement_pj"] = number(perf->energy.movement_pj);
        energy["alu_pj"] = number(perf->energy.alu_pj);
        energy["write_pj"] = number(perf->energy.write_pj);
        perf_obj["energy"] = ConfigValue::makeObject(std::move(energy));
        perf_obj["peak_power_mw"] = number(perf->peak_power_mw);
        perf_obj["avg_power_mw"] = number(perf->avg_power_mw);
        perf_obj["peak_active_xbs"] = number(perf->peak_active_xbs);
        perf_obj["crossbars_mapped"] = number(perf->crossbars_mapped);
        perf_obj["crossbar_utilization"] =
            number(perf->crossbar_utilization);
        if (perf->engine == PerfEngineKind::kEvent) {
            perf_obj["stall_cycles"] = number(perf->stall_cycles);
            ConfigValue::Array resource_rows;
            for (const ResourceUsage &usage : perf->resources) {
                ConfigValue::Object row;
                row["name"] = text(usage.name);
                row["instances"] = number(usage.instances);
                row["ops"] = number(usage.ops);
                row["busy_cycles"] = number(usage.busy_cycles);
                row["stall_cycles"] = number(usage.stall_cycles);
                row["utilization"] = number(usage.utilization);
                resource_rows.push_back(
                    ConfigValue::makeObject(std::move(row)));
            }
            perf_obj["resources"] =
                ConfigValue::makeArray(std::move(resource_rows));
        }
        perf_obj["text"] = text(perf->toString());
        doc["perf"] = ConfigValue::makeObject(std::move(perf_obj));
    }

    if (code.has_value()) {
        ConfigValue::Object flow_obj;
        flow_obj["statements"] = number(flowStatements());
        flow_obj["executable"] = ConfigValue::makeBool(code->executable);
        flow_obj["summary"] = text(code->program.summary());
        if (!flow_text.empty())
            flow_obj["text"] = text(flow_text);
        doc["flow"] = ConfigValue::makeObject(std::move(flow_obj));
    }

    if (lint.has_value()) {
        ConfigValue::Object lint_obj;
        lint_obj["errors"] = number(lint->errors());
        lint_obj["warnings"] = number(lint->warnings());
        lint_obj["statements"] = number(lint->statements);
        lint_obj["l0_peak_live_elems"] = number(lint->l0_peak_live_elems);
        lint_obj["l1_peak_live_elems"] = number(lint->l1_peak_live_elems);
        lint_obj["crossbars_programmed"] =
            number(lint->crossbars_programmed);
        lint_obj["diagnostics"] = diagnosticsToConfig(lint->diagnostics);
        doc["lint"] = ConfigValue::makeObject(std::move(lint_obj));
    }

    // Dual-mode / hybrid-offload sections only appear when their knob is
    // on, so reports from knob-off runs keep their historical bytes.
    if (options.dual_mode && schedule.has_value()) {
        ConfigValue::Object mode_obj;
        std::int64_t resident_count = 0;
        ConfigValue::Array seg_rows;
        for (std::size_t s = 0; s < schedule->segments.size(); ++s) {
            const Segment &segment = schedule->segments[s];
            if (segment.resident)
                ++resident_count;
            ConfigValue::Object row;
            row["segment"] = number(static_cast<std::int64_t>(s));
            row["resident"] = ConfigValue::makeBool(segment.resident);
            row["nodes"] =
                number(static_cast<std::int64_t>(segment.nodes.size()));
            row["cores_used"] = number(segment.cores_used);
            row["reload_cycles"] = number(segment.reload_cycles);
            seg_rows.push_back(ConfigValue::makeObject(std::move(row)));
        }
        mode_obj["resident_segments"] = number(resident_count);
        mode_obj["segments"] = ConfigValue::makeArray(std::move(seg_rows));
        doc["mode_map"] = ConfigValue::makeObject(std::move(mode_obj));
    }

    if (options.host_offload && schedule.has_value()) {
        ConfigValue::Object offload_obj;
        offload_obj["host_model"] = text(schedule->host_model.tag());
        ConfigValue::Array region_rows;
        for (const HostRegion &region : schedule->host_regions) {
            ConfigValue::Object row;
            row["nodes"] =
                number(static_cast<std::int64_t>(region.nodes.size()));
            row["host_cycles"] = number(region.host_cycles);
            row["chip_cycles"] = number(region.chip_cycles);
            row["transfer_bits"] = number(region.transfer_bits);
            region_rows.push_back(
                ConfigValue::makeObject(std::move(row)));
        }
        offload_obj["regions"] =
            ConfigValue::makeArray(std::move(region_rows));
        doc["offload"] = ConfigValue::makeObject(std::move(offload_obj));
    }

    if (!schedule_report.empty())
        doc["schedule_report"] = text(schedule_report);

    if (verify.has_value()) {
        ConfigValue::Object verify_obj;
        verify_obj["match"] = ConfigValue::makeBool(verify->match);
        verify_obj["outputs_checked"] = number(verify->outputs_checked);
        verify_obj["elements_checked"] = number(verify->elements_checked);
        verify_obj["mismatches"] = number(verify->mismatches);
        if (!verify->first_mismatch.empty())
            verify_obj["first_mismatch"] = text(verify->first_mismatch);
        verify_obj["flow_ops"] = number(verify->flow_ops);
        if (verify->host_ops > 0)
            verify_obj["host_ops"] = number(verify->host_ops);
        doc["verify"] = ConfigValue::makeObject(std::move(verify_obj));
    }

    ConfigValue::Array stage_rows;
    for (const StageTrace &trace : stages) {
        ConfigValue::Object row;
        row["stage"] = text(compileStageName(trace.stage));
        row["status"] = text(trace.status.toString());
        row["wall_ms"] = number(trace.wall_ms);
        row["cached"] = ConfigValue::makeBool(trace.cached);
        if (!trace.detail.empty())
            row["detail"] = text(trace.detail);
        stage_rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    doc["stages"] = ConfigValue::makeArray(std::move(stage_rows));

    return ConfigValue::makeObject(std::move(doc));
}

// ----- CompilerSession ------------------------------------------------------

bool
CompilerSession::stageEnabled(CompileStage stage) const
{
    switch (stage) {
      case CompileStage::kTune: return request_.tune;
      case CompileStage::kCodegen:
        // The event perf engine replays the emitted flow, so codegen
        // runs for it even when the caller did not ask for the flow
        // artifact (e.g. DSE evaluations with outputs.flow = false).
        return request_.outputs.flow ||
               (request_.perf_engine == PerfEngineKind::kEvent &&
                static_cast<int>(request_.stop_after) >=
                    static_cast<int>(CompileStage::kPerf));
      case CompileStage::kLint: return request_.lint;
      case CompileStage::kVerify: return request_.outputs.verify;
      default: return true;
    }
}

Status
CompilerSession::stageLoad(CompileArtifacts &artifacts, std::string &detail)
{
    if (request_.graph != nullptr) {
        graph_ = request_.graph;
    } else if (!request_.model.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(owned_graph_,
                                models::byNameChecked(request_.model));
        graph_ = &*owned_graph_;
    } else if (!request_.model_file.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(owned_graph_,
                                graphFromFile(request_.model_file));
        graph_ = &*owned_graph_;
    } else {
        CIMMLC_ASSIGN_OR_RETURN(owned_graph_,
                                graphFromText(request_.model_text));
        graph_ = &*owned_graph_;
    }

    if (request_.arch_ref != nullptr) {
        arch_ = request_.arch_ref;
    } else if (!request_.arch_file.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(owned_arch_,
                                archFromFile(request_.arch_file));
        arch_ = &*owned_arch_;
    } else if (!request_.arch_text.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(owned_arch_,
                                archFromText(request_.arch_text));
        arch_ = &*owned_arch_;
    } else {
        const std::string name =
            request_.arch.empty() ? "isaac-baseline" : request_.arch;
        CIMMLC_ASSIGN_OR_RETURN(owned_arch_, presets::byName(name));
        arch_ = &*owned_arch_;
    }

    if (request_.workload_prefix_nodes > 0) {
        // Proxy fidelity: replace the workload with its topological
        // prefix, so every downstream stage prices the truncated graph.
        CIMMLC_ASSIGN_OR_RETURN(
            Graph prefix,
            topoPrefix(*graph_, request_.workload_prefix_nodes));
        owned_graph_ = std::move(prefix);
        graph_ = &*owned_graph_;
    }

    if (request_.artifact_cache != nullptr) {
        // Every downstream stage key chains from this digest, which
        // starts from the TuneCache keys' (graph, arch) digest. The host
        // model reprices offload-enabled options, so it joins the base.
        base_digest_ = ArtifactHash()
                           .mix(evaluationDigest(*graph_, *arch_))
                           .mix(request_.host_model.tag())
                           .digest();
    }

    artifacts.workload = graph_->name();
    artifacts.nodes = static_cast<std::int64_t>(graph_->nodeCount());
    artifacts.weights = graph_->totalWeights();
    artifacts.arch_name = arch_->name;
    artifacts.arch_mode = computeModeName(arch_->mode);
    artifacts.arch_text = arch_->toString();
    detail = strformat("workload '%s' (%lld nodes, %lld weights) on "
                       "arch '%s' [%s]",
                       artifacts.workload.c_str(),
                       static_cast<long long>(artifacts.nodes),
                       static_cast<long long>(artifacts.weights),
                       artifacts.arch_name.c_str(),
                       artifacts.arch_mode.c_str());
    return Status::ok();
}

Status
CompilerSession::stageValidate(std::string &detail)
{
    CIMMLC_RETURN_IF_ERROR(validateGraphForScheduling(*graph_));
    CIMMLC_RETURN_IF_ERROR(arch_->validate());
    if (const std::string advisory = arch_->advisory(); !advisory.empty())
        warn(advisory);
    detail = "graph and Abs-arch preconditions hold";
    return Status::ok();
}

Status
CompilerSession::stageTune(CompileArtifacts &artifacts, std::string &detail)
{
    AutoTuneConfig config;
    config.objective = request_.objective;
    config.threads = request_.threads;
    config.cache = request_.tune_cache;
    config.budget = request_.search_budget;
    config.host_model = request_.host_model;
    const AutoTuner tuner(config);
    CIMMLC_ASSIGN_OR_RETURN(artifacts.tune, tuner.tune(*graph_, *arch_));
    detail = artifacts.tune->summary();
    return Status::ok();
}

Status
CompilerSession::stageSchedule(CompileArtifacts &artifacts,
                               std::string &detail)
{
    CIMMLC_ASSIGN_OR_RETURN(
        artifacts.schedule,
        scheduleGraph(*graph_, *arch_, artifacts.options,
                      request_.host_model));
    detail = strformat("%zu segments, latency %.6g cycles, config %s",
                       artifacts.schedule->segments.size(),
                       artifacts.schedule->total_latency_cycles,
                       artifacts.options.toString().c_str());
    return Status::ok();
}

Status
CompilerSession::stageCodegen(CompileArtifacts &artifacts,
                              std::string &detail)
{
    CIMMLC_ASSIGN_OR_RETURN(artifacts.code,
                            generateProgram(*graph_, *arch_,
                                            *artifacts.schedule,
                                            request_.codegen));
    detail = artifacts.code->program.summary();
    return Status::ok();
}

Status
CompilerSession::stageLint(CompileArtifacts &artifacts, std::string &detail)
{
    AnalyzeOptions options;
    // Compressed flows emit one template window inside repeat blocks;
    // restrict mopcheck to the checks that stay sound there.
    options.executable = artifacts.code->executable;
    // Codegen assigns tensor offsets in a virtual L0 space (the global
    // buffer is off-chip-backed; l0_size_kib prices bandwidth/energy),
    // so the physical L0 bound does not apply to emitted flows.
    options.validate.enforce_l0_capacity = false;
    // When a model does not fit the array, codegen deliberately emits
    // runtime weight reloads; the perf model prices them. That is a
    // capacity decision, not a program defect, so the device write
    // policy is advisory for emitted flows.
    options.validate.enforce_write_policy = false;
    // Graph inputs are loaded into L0 by the host before the flow runs.
    for (TensorId input : graph_->inputs()) {
        auto it = artifacts.code->tensor_offsets.find(input);
        if (it == artifacts.code->tensor_offsets.end())
            continue;
        LiveInRegion region;
        region.space = MemSpace::kL0;
        region.begin = it->second;
        region.end = it->second + graph_->tensor(input).numel();
        options.live_in.push_back(region);
    }
    artifacts.lint =
        analyzeProgram(artifacts.code->program, *arch_, options);
    detail = artifacts.lint->summary();
    return Status::ok();
}

Status
CompilerSession::stagePerf(CompileArtifacts &artifacts, std::string &detail)
{
    const std::unique_ptr<PerfEngine> engine =
        makePerfEngine(request_.perf_engine);
    PerfInput input;
    input.graph = graph_;
    input.arch = arch_;
    input.schedule = &*artifacts.schedule;
    input.program =
        artifacts.code.has_value() ? &artifacts.code->program : nullptr;
    CIMMLC_ASSIGN_OR_RETURN(artifacts.perf, engine->evaluate(input));
    detail = artifacts.perf->toString();
    return Status::ok();
}

Status
CompilerSession::stageVerify(CompileArtifacts &artifacts,
                             std::string &detail)
{
    CIMMLC_ASSIGN_OR_RETURN(
        artifacts.verify,
        verifyWithRandomStimulus(*graph_, *arch_, *artifacts.schedule,
                                 request_.verify_seed));
    detail = strformat(
        "%s (%lld elements, %lld flow ops)",
        artifacts.verify->match ? "BIT-EXACT MATCH" : "MISMATCH",
        static_cast<long long>(artifacts.verify->elements_checked),
        static_cast<long long>(artifacts.verify->flow_ops));
    return Status::ok();
}

std::string
CompilerSession::stageKey(CompileStage stage,
                          const CompileArtifacts &artifacts) const
{
    if (base_digest_.empty() || stage == CompileStage::kLoad)
        return std::string();
    ArtifactHash hash;
    hash.mix(base_digest_);
    // The emitted flow is a pure function of (graph, arch, options,
    // codegen parameters); lint and flow-replaying perf chain from the
    // same inputs as codegen itself.
    const auto mix_codegen_inputs = [this, &artifacts, &hash] {
        hash.mix(artifacts.options.toString());
        hash.mix(request_.codegen.unroll);
        hash.mix(request_.codegen.max_ops);
        for (const auto &[node, params] : request_.codegen.shifts) {
            hash.mix(static_cast<std::int64_t>(node));
            hash.mix(static_cast<std::int64_t>(params.shift));
        }
    };
    switch (stage) {
      case CompileStage::kLoad:
        return std::string();
      case CompileStage::kValidate:
        // Depends only on the graph and the Abs-arch.
        break;
      case CompileStage::kTune:
        hash.mix(tuneObjectiveName(request_.objective));
        hash.mix(request_.search_budget.toString());
        break;
      case CompileStage::kSchedule:
        // artifacts.options is the configuration actually in effect —
        // a replayed tune stage restores it first, so a tuned and an
        // explicitly-configured run that agree on the options share
        // the schedule artifact.
        hash.mix(artifacts.options.toString());
        break;
      case CompileStage::kCodegen:
      case CompileStage::kLint:
        // lint_strict stays out of the key: the strict verdict is
        // derived from the findings on a run and a replay alike
        // (see deriveOutputs).
        mix_codegen_inputs();
        break;
      case CompileStage::kPerf:
        hash.mix(perfEngineName(request_.perf_engine));
        hash.mix(artifacts.options.toString());
        hash.mix(artifacts.code.has_value());
        if (artifacts.code.has_value())
            mix_codegen_inputs();
        break;
      case CompileStage::kVerify:
        // Verify does not execute the emitted flow: it calibrates
        // requant shifts on the reference and replays its own unrolled
        // flow of the session's schedule. The codegen inputs cover the
        // schedule's options (the base digest its host model), plus
        // the stimulus seed.
        mix_codegen_inputs();
        hash.mix(static_cast<std::int64_t>(request_.verify_seed));
        break;
    }
    return hash.digest();
}

void
CompilerSession::replayStage(CompileStage stage,
                             const ArtifactCache::Entry &entry,
                             CompileArtifacts &artifacts)
{
    switch (stage) {
      case CompileStage::kLoad:
      case CompileStage::kValidate:
        return;
      case CompileStage::kTune:
        artifacts.tune =
            *std::static_pointer_cast<const TuneResult>(entry.value);
        return;
      case CompileStage::kSchedule:
        artifacts.schedule =
            *std::static_pointer_cast<const Schedule>(entry.value);
        return;
      case CompileStage::kCodegen:
        artifacts.code =
            *std::static_pointer_cast<const CodegenResult>(entry.value);
        return;
      case CompileStage::kLint:
        artifacts.lint =
            *std::static_pointer_cast<const AnalyzeResult>(entry.value);
        return;
      case CompileStage::kPerf:
        artifacts.perf =
            *std::static_pointer_cast<const PerfReport>(entry.value);
        return;
      case CompileStage::kVerify:
        artifacts.verify =
            *std::static_pointer_cast<const VerifyReport>(entry.value);
        return;
    }
}

Status
CompilerSession::deriveOutputs(CompileStage stage,
                               CompileArtifacts &artifacts) const
{
    switch (stage) {
      case CompileStage::kTune:
        artifacts.tuned = true;
        artifacts.options = artifacts.tune->best().options;
        break;
      case CompileStage::kSchedule:
        if (request_.outputs.schedule_report)
            artifacts.schedule_report =
                artifacts.schedule->summary(*graph_);
        break;
      case CompileStage::kCodegen:
        if (request_.outputs.flow_text) {
            PrintOptions print;
            print.max_statements = request_.outputs.flow_limit;
            artifacts.flow_text =
                printProgram(artifacts.code->program, print);
        }
        break;
      case CompileStage::kLint:
        if (request_.lint_strict && artifacts.lint->errors() > 0) {
            const Status first = firstError(artifacts.lint->diagnostics);
            return Status(StatusCode::kFailedPrecondition,
                          strformat("mopcheck found %lld error findings "
                                    "(first: %s)",
                                    static_cast<long long>(
                                        artifacts.lint->errors()),
                                    first.message().c_str()));
        }
        break;
      default:
        break;
    }
    return Status::ok();
}

void
CompilerSession::storeStage(CompileStage stage, const std::string &key,
                            double compute_ms,
                            const CompileArtifacts &artifacts,
                            const std::string &detail)
{
    ArtifactCache::Entry entry;
    entry.detail = detail;
    entry.compute_ms = compute_ms;
    switch (stage) {
      case CompileStage::kLoad:
        return;
      case CompileStage::kValidate:
        break; // no artifact beyond the detail line
      case CompileStage::kTune:
        entry.value = std::make_shared<const TuneResult>(*artifacts.tune);
        break;
      case CompileStage::kSchedule:
        entry.value =
            std::make_shared<const Schedule>(*artifacts.schedule);
        break;
      case CompileStage::kCodegen:
        entry.value =
            std::make_shared<const CodegenResult>(*artifacts.code);
        break;
      case CompileStage::kLint:
        entry.value =
            std::make_shared<const AnalyzeResult>(*artifacts.lint);
        break;
      case CompileStage::kPerf:
        entry.value = std::make_shared<const PerfReport>(*artifacts.perf);
        break;
      case CompileStage::kVerify:
        entry.value =
            std::make_shared<const VerifyReport>(*artifacts.verify);
        break;
    }
    request_.artifact_cache->insert(compileStageName(stage), key,
                                    std::move(entry));
}

std::size_t
CompilerSession::cachedStageCount(const CompileArtifacts &artifacts)
{
    std::size_t count = 0;
    for (const StageTrace &trace : artifacts.stages)
        if (trace.cached)
            ++count;
    return count;
}

Status
CompilerSession::runStage(CompileStage stage, CompileArtifacts &artifacts)
{
    StageTrace trace;
    trace.stage = stage;
    const auto start = std::chrono::steady_clock::now();

    std::string key;
    if (request_.artifact_cache != nullptr) {
        key = stageKey(stage, artifacts);
        if (!key.empty()) {
            if (auto entry = request_.artifact_cache->lookup(
                    compileStageName(stage), key)) {
                replayStage(stage, *entry, artifacts);
                trace.detail = entry->detail;
                trace.cached = true;
            }
        }
    }

    if (!trace.cached) {
        switch (stage) {
          case CompileStage::kLoad:
            trace.status = stageLoad(artifacts, trace.detail);
            break;
          case CompileStage::kValidate:
            trace.status = stageValidate(trace.detail);
            break;
          case CompileStage::kTune:
            trace.status = stageTune(artifacts, trace.detail);
            break;
          case CompileStage::kSchedule:
            trace.status = stageSchedule(artifacts, trace.detail);
            break;
          case CompileStage::kCodegen:
            trace.status = stageCodegen(artifacts, trace.detail);
            break;
          case CompileStage::kLint:
            trace.status = stageLint(artifacts, trace.detail);
            break;
          case CompileStage::kPerf:
            trace.status = stagePerf(artifacts, trace.detail);
            break;
          case CompileStage::kVerify:
            trace.status = stageVerify(artifacts, trace.detail);
            break;
        }
    }
    if (trace.status.isOk())
        trace.status = deriveOutputs(stage, artifacts);
    if (!trace.cached && !key.empty() && trace.status.isOk()) {
        const double compute_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        storeStage(stage, key, compute_ms, artifacts, trace.detail);
    }

    trace.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    artifacts.stages.push_back(std::move(trace));
    if (observer_)
        observer_(artifacts.stages.back(), artifacts);
    return artifacts.stages.back().status.withContext(
        compileStageName(stage));
}

StatusOr<CompileArtifacts>
CompilerSession::run()
{
    {
        const Status valid = request_.validate();
        if (!valid.isOk())
            return valid.withContext("CompileRequest");
    }

    CompileArtifacts artifacts;
    if (request_.options.has_value()) {
        artifacts.options = *request_.options;
    } else {
        CIMMLC_ASSIGN_OR_RETURN(artifacts.options,
                                scheduleOptionsByName(request_.opt));
    }

    for (CompileStage stage :
         {CompileStage::kLoad, CompileStage::kValidate, CompileStage::kTune,
          CompileStage::kSchedule, CompileStage::kCodegen,
          CompileStage::kLint, CompileStage::kPerf,
          CompileStage::kVerify}) {
        if (cancel_check_ && cancel_check_())
            return Status(StatusCode::kFailedPrecondition,
                          strformat("canceled before the %s stage",
                                    compileStageName(stage)));
        if (stageEnabled(stage))
            CIMMLC_RETURN_IF_ERROR(runStage(stage, artifacts));
        if (stage == request_.stop_after)
            break;
    }
    return artifacts;
}

} // namespace cimmlc
