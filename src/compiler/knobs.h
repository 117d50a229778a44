/**
 * @file
 * The compile knobs: one record and one table for every compile surface.
 * `cimmlc` flags fill a record, a compile frame carries one to cimmlcd
 * (daemon/protocol.h), and a batch sweep file or DSE spec holds one for
 * all of its compiles. Every document surface reads the knob keys with
 * the same typed reader, and every surface turns its record into a
 * CompileRequest through applyKnobs().
 */
#ifndef CIMMLC_COMPILER_KNOBS_H
#define CIMMLC_COMPILER_KNOBS_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/config.h"
#include "common/flags.h"
#include "common/status.h"
#include "compiler/session.h"

namespace cimmlc {

/**
 * One compile's knobs, as a compile frame carries them. Field semantics
 * match CompileRequest, and every field but `id` is a compile knob
 * (compileKnobs()). A daemon-served compile is byte-identical to
 * `cimmlc --report json` run in-process (timing fields aside).
 */
struct RpcCompileRequest {
    std::int64_t id = 0;      //!< client-chosen, echoed on every reply
    std::string model;        //!< preset name (models::byName)
    std::string model_text;   //!< inline kvjson graph
    std::string arch;         //!< preset name (presets::byName)
    std::string arch_text;    //!< inline kvjson Abs-arch
    std::string opt = "full"; //!< none | cg | cg+mvm | full
    bool dual_mode = false;    //!< overlay: resident dual-mode arrays
    bool host_offload = false; //!< overlay: host/CIM hybrid offload
    bool tune = false;
    std::string objective = "latency";
    std::int64_t search_budget = -1; //!< -1 = exhaustive
    std::string perf_engine = "closed_form";
    bool lint = false;
    bool lint_strict = false;
    bool verify = false;

    /** Serializes every field explicitly (canonical form: two requests
     * meaning the same compile dump identically). */
    ConfigValue toConfig() const;

    /** The options `opt` names, with dual_mode and host_offload forced
     * on when set: what an untuned compile schedules with. */
    StatusOr<ScheduleOptions> scheduleOptions() const;

    /** Sets the knob part of @p request: the schedule options (the
     * dual_mode/host_offload overlay on `opt`), tuning, perf engine,
     * lint (lint_strict implies lint) and verify. The workload and
     * arch sources, caches and thread budget stay the caller's. */
    Status applyKnobs(CompileRequest &request) const;

    /** Maps the wire request onto a validated CompileRequest, with
     * the daemon's shared TuneCache and stage-level ArtifactCache
     * (either may be null). The tune stage runs serial: daemon
     * concurrency comes from running many sessions. */
    StatusOr<CompileRequest>
    toCompileRequest(TuneCache *tune_cache,
                     ArtifactCache *artifact_cache = nullptr) const;
};

/** The modes of `cimmlc`, as bits of Flag::modes. */
enum CimmlcMode : unsigned {
    kSingleMode = 1U << 0,  //!< one in-process compile
    kTunedMode = 1U << 1,   //!< one in-process compile with --autotune
    kBatchMode = 1U << 2,   //!< --batch
    kDseMode = 1U << 3,     //!< --arch-dse
    kConnectMode = 1U << 4, //!< --connect / --connect-tcp
};
constexpr unsigned kCompileModes = kSingleMode | kTunedMode;

/**
 * One compile knob: an RpcCompileRequest field, its document key (of
 * the field's kvjson type), and the `cimmlc` flag that sets it. These
 * rows drive every document reader and cimmlc's knob flags.
 */
struct CompileKnob {
    const char *key; //!< document key, the field's name
    std::variant<std::string RpcCompileRequest::*, bool RpcCompileRequest::*,
                 std::int64_t RpcCompileRequest::*>
        field;
    const char *flag;  //!< the cimmlc flag
    const char *value; //!< its value in --help (nullptr: none)
    const char *help;
    unsigned modes; //!< CimmlcMode bits of the modes that read the flag
    bool file_key = false; //!< sweep files and DSE specs read the key

    /** The flag's row, writing @p request's field. --model-file and
     * --arch-file write a path into model_text and arch_text; the
     * front end reads the file (--connect) or passes the path on. */
    Flag flagOn(RpcCompileRequest &request) const;

    /** readTypedKey() into this knob's field of @p request. */
    Status read(const char *surface, const ConfigValue &v,
                RpcCompileRequest &request) const;
};

/** The 14 compile knobs, in field order. */
const std::vector<CompileKnob> &compileKnobs();

/** The knob whose key is @p key, or nullptr. */
const CompileKnob *findCompileKnob(const std::string &key);

/** Fails unless @p knobs names a known opt level, objective and perf
 * engine, tuned or not. */
Status checkKnobValues(const RpcCompileRequest &knobs);

/** Reads the file knobs of object @p doc, a sweep file or DSE spec
 * (@p surface), into @p knobs and checks their values. Members named
 * in @p surface_keys are the caller's; any other is an error. */
Status readFileKnobs(const ConfigValue &doc, const char *surface,
                     const std::vector<std::string> &surface_keys,
                     RpcCompileRequest &knobs);

} // namespace cimmlc

#endif // CIMMLC_COMPILER_KNOBS_H
