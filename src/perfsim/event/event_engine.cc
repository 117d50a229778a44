#include "perfsim/event/event_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "perfsim/energy.h"

namespace cimmlc {

namespace {

/** Physical resource classes ops contend on, in report order. */
enum class ResClass : int {
    kCrossbar = 0, //!< one crossbar array (core, xb)
    kCore,         //!< a whole CM-mode core
    kL0Port,       //!< the chip-tier global buffer port
    kL1Port,       //!< one core's local buffer port
    kNocLink,      //!< the NoC link into one core's L1
    kAlu,          //!< the chip (-1) or core digital ALU
    kCount_,
};

constexpr std::array<const char *, static_cast<int>(ResClass::kCount_)>
    kResClassNames = {"xbar", "core", "l0", "l1", "noc", "alu"};

/** One queued op waiting for a resource grant. */
struct Waiter {
    double ready = 0.0; //!< fiber time when the request was made
    std::uint64_t seq = 0;
    int fiber = -1;
    const MetaOp *op = nullptr;
    double duration = 0.0;
    double multiplier = 1.0;
};

struct WaiterLater {
    bool
    operator()(const Waiter &a, const Waiter &b) const
    {
        if (a.ready != b.ready)
            return a.ready > b.ready;
        return a.seq > b.seq;
    }
};

struct Resource {
    ResClass cls = ResClass::kCrossbar;
    std::int64_t core = 0;
    std::int64_t index = 0;
    int ordinal = 0; //!< creation order; event tie-break rank
    double free_at = 0.0;
    bool in_flight = false;
    Waiter current; //!< the op being served while in_flight
    std::priority_queue<Waiter, std::vector<Waiter>, WaiterLater> waiters;
    // occupancy statistics (repeat-weighted)
    std::int64_t ops = 0;
    double busy = 0.0;
    double stall = 0.0;
};

/** One level of a fiber's walk through the statement tree. */
struct Frame {
    const Stmt *base = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;
    bool is_repeat = false;
    std::int64_t repeat_count = 1;
    double repeat_start = 0.0;
    double saved_multiplier = 1.0;
};

/**
 * A logical thread of execution: the program root, or one arm of a
 * `parallel { }` block. Suspends while an issued op awaits its grant.
 */
struct Fiber {
    std::vector<Frame> frames;
    double now = 0.0;
    double multiplier = 1.0;
    int parent = -1;
    int pending_children = 0;
    double join_end = 0.0;
    bool done = false;
};

/** Crossbar activation interval for the peak-power sweep. */
struct Interval {
    double start;
    double end;
    std::int64_t xbs;
};

struct Event {
    enum class Kind { kPump, kCompletion };

    double time = 0.0;
    int rank = 0; //!< resource ordinal + 1
    std::uint64_t seq = 0;
    Kind kind = Kind::kPump;
    int resource = -1;
};

struct EventLater {
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.time != b.time)
            return a.time > b.time;
        if (a.rank != b.rank)
            return a.rank > b.rank;
        return a.seq > b.seq;
    }
};

class EventSim
{
  public:
    explicit EventSim(const CimArchitecture &arch)
        : arch_(arch), energy_model_(arch)
    {
    }

    StatusOr<EventSimReport>
    run(const MopProgram &program)
    {
        double init_end = 0.0;
        CIMMLC_RETURN_IF_ERROR(runRegion(program.init(), 0.0, &init_end));
        double total_end = init_end;
        CIMMLC_RETURN_IF_ERROR(
            runRegion(program.compute(), init_end, &total_end));

        EventSimReport report;
        report.cycles = total_end;
        report.init_cycles = init_end;
        report.ops = sim_ops_;
        report.energy = energy_;
        report.stall_cycles = total_stall_;
        report.peak_active_xbs = sweepPeak();
        report.peak_power_mw =
            static_cast<double>(report.peak_active_xbs) *
                energy_model_.activeCrossbarPowerMw() +
            energy_model_.movementPeakPowerMw();
        if (total_end > 0.0)
            report.avg_power_mw = energy_.total() / total_end;
        aggregateResources(total_end, &report.resources);
        return report;
    }

  private:
    Status
    runRegion(const std::vector<Stmt> &stmts, double start, double *end)
    {
        root_end_ = start;
        const int fi = newFiber(start, 1.0, -1);
        if (!stmts.empty()) {
            Frame frame;
            frame.base = stmts.data();
            frame.count = stmts.size();
            fibers_[fi].frames.push_back(frame);
        }
        advance(fi);
        while (!events_.empty() && status_.isOk()) {
            const Event e = events_.top();
            events_.pop();
            if (e.kind == Event::Kind::kCompletion)
                handleCompletion(e.resource, e.time);
            else
                pump(e.resource, e.time);
        }
        CIMMLC_RETURN_IF_ERROR(status_);
        *end = std::max(*end, root_end_);
        return Status::ok();
    }

    int
    newFiber(double now, double multiplier, int parent)
    {
        Fiber f;
        f.now = now;
        f.multiplier = multiplier;
        f.parent = parent;
        const int fi = static_cast<int>(fibers_.size());
        fibers_.push_back(std::move(f));
        return fi;
    }

    /** Walks statements until the fiber issues an op or completes. */
    void
    advance(int fi)
    {
        for (;;) {
            if (!status_.isOk())
                return;
            Fiber &f = fibers_[fi];
            if (f.frames.empty()) {
                finishFiber(fi);
                return;
            }
            Frame &fr = f.frames.back();
            if (fr.next >= fr.count) {
                if (fr.is_repeat) {
                    // Iterations are sequential, so the resource state
                    // at each iteration start repeats: simulate the body
                    // once (energy/occupancy carry the multiplier) and
                    // extrapolate the remaining iterations by shifting
                    // time and the resources the body occupied.
                    const double period = f.now - fr.repeat_start;
                    f.now = fr.repeat_start +
                            period *
                                static_cast<double>(fr.repeat_count);
                    if (fr.repeat_count > 1 && period > 0.0)
                        shiftResources(
                            fr.repeat_start,
                            period * static_cast<double>(
                                         fr.repeat_count - 1));
                    f.multiplier = fr.saved_multiplier;
                }
                f.frames.pop_back();
                continue;
            }
            const Stmt &s = fr.base[fr.next++];
            switch (s.kind) {
              case Stmt::Kind::kOp:
                issueOp(fi, s.op);
                return;
              case Stmt::Kind::kParallel: {
                if (s.body.empty())
                    continue;
                f.pending_children = static_cast<int>(s.body.size());
                f.join_end = f.now;
                const double at = f.now;
                const double mult = f.multiplier;
                std::vector<int> children;
                children.reserve(s.body.size());
                for (const Stmt &arm : s.body) {
                    const int ci = newFiber(at, mult, fi);
                    Frame cf;
                    cf.base = &arm;
                    cf.count = 1;
                    fibers_[ci].frames.push_back(cf);
                    children.push_back(ci);
                }
                for (const int ci : children)
                    advance(ci);
                return;
              }
              case Stmt::Kind::kRepeat: {
                if (s.repeat <= 0 || s.body.empty())
                    continue;
                Frame rf;
                rf.base = s.body.data();
                rf.count = s.body.size();
                rf.is_repeat = true;
                rf.repeat_count = s.repeat;
                rf.repeat_start = f.now;
                rf.saved_multiplier = f.multiplier;
                // fr is invalidated by the push; refetched next round.
                f.multiplier *= static_cast<double>(s.repeat);
                f.frames.push_back(rf);
                continue;
              }
            }
            status_ = internalError("unhandled statement kind");
            return;
        }
    }

    void
    finishFiber(int fi)
    {
        Fiber &f = fibers_[fi];
        if (f.done)
            return;
        f.done = true;
        if (f.parent < 0) {
            root_end_ = std::max(root_end_, f.now);
            return;
        }
        Fiber &parent = fibers_[f.parent];
        parent.join_end = std::max(parent.join_end, f.now);
        if (--parent.pending_children == 0) {
            parent.now = parent.join_end;
            advance(f.parent);
        }
    }

    void
    issueOp(int fi, const MetaOp &op)
    {
        const int ri = resourceFor(op);
        Fiber &f = fibers_[fi];
        Resource &r = resources_[ri];
        Waiter w;
        w.ready = f.now;
        w.seq = seq_++;
        w.fiber = fi;
        w.op = &op;
        w.duration = metaOpDurationCycles(op, arch_);
        w.multiplier = f.multiplier;
        r.waiters.push(w);
        schedulePump(ri, std::max(f.now, r.free_at));
    }

    void
    schedulePump(int ri, double at)
    {
        events_.push({at, resources_[ri].ordinal + 1, seq_++,
                      Event::Kind::kPump, ri});
    }

    /** Grants the earliest-ready waiter if the resource is free. */
    void
    pump(int ri, double at)
    {
        Resource &r = resources_[ri];
        if (r.in_flight || r.waiters.empty())
            return;
        const Waiter &top = r.waiters.top();
        const double start_at = std::max(top.ready, r.free_at);
        if (start_at > at) {
            schedulePump(ri, start_at);
            return;
        }
        const Waiter w = top;
        r.waiters.pop();
        grant(ri, w, at);
    }

    void
    grant(int ri, const Waiter &w, double start)
    {
        Resource &r = resources_[ri];
        const double stall = (start - w.ready) * w.multiplier;
        r.stall += stall;
        total_stall_ += stall;
        r.busy += w.duration * w.multiplier;
        r.ops += std::llround(w.multiplier);
        r.free_at = start + w.duration;
        r.in_flight = true;
        r.current = w;
        ++sim_ops_;
        const std::int64_t xbs = metaOpActiveCrossbars(*w.op, arch_);
        if (xbs > 0)
            intervals_.push_back({start, start + w.duration, xbs});
        accountMetaOpEnergy(*w.op, w.duration, w.multiplier, arch_,
                            energy_model_, &energy_);
        events_.push({r.free_at, r.ordinal + 1, seq_++,
                      Event::Kind::kCompletion, ri});
    }

    void
    handleCompletion(int ri, double at)
    {
        Resource &r = resources_[ri];
        const int fi = r.current.fiber;
        r.in_flight = false;
        pump(ri, at);
        Fiber &f = fibers_[fi];
        f.now = std::max(f.now, at);
        advance(fi);
    }

    /** Extrapolates repeat iterations over the occupied resources. */
    void
    shiftResources(double after, double extra)
    {
        for (Resource &r : resources_) {
            if (r.free_at > after)
                r.free_at += extra;
        }
    }

    int
    resourceFor(const MetaOp &op)
    {
        ResClass cls = ResClass::kAlu;
        std::int64_t core = 0;
        std::int64_t index = 0;
        switch (op.kind) {
          case MetaOpKind::kReadXb:
          case MetaOpKind::kWriteXb:
          case MetaOpKind::kReadRow:
          case MetaOpKind::kWriteRow:
            cls = ResClass::kCrossbar;
            core = op.core;
            index = op.xb;
            break;
          case MetaOpKind::kReadCore:
          case MetaOpKind::kWriteCore:
            cls = ResClass::kCore;
            core = op.core;
            break;
          case MetaOpKind::kDcom:
            cls = ResClass::kAlu;
            if (op.dst.space == MemSpace::kL1)
                core = op.dst.core;
            else if (op.src.space == MemSpace::kL1)
                core = op.src.core;
            else
                core = -1; // chip-tier ALU
            break;
          case MetaOpKind::kMov: {
            const bool src_l1 = op.src.space == MemSpace::kL1;
            const bool dst_l1 = op.dst.space == MemSpace::kL1;
            if (!src_l1 && !dst_l1) {
                cls = ResClass::kL0Port;
                core = -1;
            } else if (src_l1 && dst_l1 &&
                       op.src.core == op.dst.core) {
                cls = ResClass::kL1Port;
                core = op.src.core;
            } else {
                // Cross-tier or cross-core: the NoC link into the L1
                // side (destination core when both ends are L1).
                cls = ResClass::kNocLink;
                core = dst_l1 ? op.dst.core : op.src.core;
            }
            break;
          }
        }
        const auto key =
            std::make_tuple(static_cast<int>(cls), core, index);
        const auto it = resource_index_.find(key);
        if (it != resource_index_.end())
            return it->second;
        Resource r;
        r.cls = cls;
        r.core = core;
        r.index = index;
        r.ordinal = static_cast<int>(resources_.size());
        const int ri = r.ordinal;
        resources_.push_back(std::move(r));
        resource_index_.emplace(key, ri);
        return ri;
    }

    std::int64_t
    sweepPeak() const
    {
        std::vector<std::pair<double, std::int64_t>> events;
        events.reserve(intervals_.size() * 2);
        for (const Interval &iv : intervals_) {
            events.emplace_back(iv.start, iv.xbs);
            events.emplace_back(iv.end, -iv.xbs);
        }
        std::sort(events.begin(), events.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second < b.second; // close before open
                  });
        std::int64_t current = 0;
        std::int64_t peak = 0;
        for (const auto &[time, delta] : events) {
            current += delta;
            peak = std::max(peak, current);
        }
        return peak;
    }

    void
    aggregateResources(double makespan,
                       std::vector<ResourceUsage> *rows) const
    {
        struct ClassAgg {
            std::int64_t instances = 0;
            std::int64_t ops = 0;
            double busy = 0.0;
            double stall = 0.0;
        };
        std::array<ClassAgg, static_cast<int>(ResClass::kCount_)> agg{};
        for (const Resource &r : resources_) {
            ClassAgg &a = agg[static_cast<int>(r.cls)];
            ++a.instances;
            a.ops += r.ops;
            a.busy += r.busy;
            a.stall += r.stall;
        }
        for (int c = 0; c < static_cast<int>(ResClass::kCount_); ++c) {
            const ClassAgg &a = agg[c];
            if (a.instances == 0)
                continue;
            ResourceUsage row;
            row.name = kResClassNames[c];
            row.instances = a.instances;
            row.ops = a.ops;
            row.busy_cycles = a.busy;
            row.stall_cycles = a.stall;
            if (makespan > 0.0)
                row.utilization =
                    a.busy /
                    (makespan * static_cast<double>(a.instances));
            rows->push_back(std::move(row));
        }
    }

    const CimArchitecture &arch_;
    EnergyModel energy_model_;
    Status status_ = Status::ok();

    std::deque<Fiber> fibers_;
    std::deque<Resource> resources_;
    std::map<std::tuple<int, std::int64_t, std::int64_t>, int>
        resource_index_;
    std::priority_queue<Event, std::vector<Event>, EventLater> events_;
    std::uint64_t seq_ = 0;
    double root_end_ = 0.0;

    std::vector<Interval> intervals_;
    EnergyBreakdown energy_;
    double total_stall_ = 0.0;
    std::int64_t sim_ops_ = 0;
};

} // namespace

StatusOr<EventSimReport>
simulateProgramEvents(const MopProgram &program,
                      const CimArchitecture &arch)
{
    EventSim sim(arch);
    return sim.run(program);
}

} // namespace cimmlc
