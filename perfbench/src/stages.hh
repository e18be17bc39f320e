/**
 * @file
 * Stage tracing of the benchmark's traced runs.
 *
 * Spans are opened by the benchmark itself around its calls into the
 * simulator (obs::TraceSpan on a private Tracer, so the library's own
 * hooks stay off). The one span inside a library call comes from
 * TimedModel, which wraps the array model a PreparedLayer carries so
 * that every ArrayModel::run executePrepared makes is timed.
 *
 * Parent links are the nesting of spans on one thread: traced ops run
 * serially, so a span's parent is the innermost span on its thread
 * that encloses it. A stage's self time is its duration minus the
 * durations of its direct children.
 */

#ifndef PERFBENCH_STAGES_HH
#define PERFBENCH_STAGES_HH

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/array_model.hh"
#include "obs/trace.hh"

namespace perfbench {

/** Forwards to the wrapped model and times each run as one span. */
class TimedModel : public s2ta::ArrayModel
{
  public:
    TimedModel(std::shared_ptr<const s2ta::ArrayModel> inner,
               s2ta::obs::Tracer &tracer)
        : ArrayModel(inner->config()), inner_(std::move(inner)),
          tracer_(tracer)
    {}

  protected:
    void
    simulate(const s2ta::GemmPlan &plan, const s2ta::RunOptions &opt,
             s2ta::GemmRun &out) const override
    {
        s2ta::obs::TraceSpan span(tracer_, "arch", "gemm_run");
        out = inner_->run(plan, opt);
    }

  private:
    std::shared_ptr<const s2ta::ArrayModel> inner_;
    s2ta::obs::Tracer &tracer_;
};

/**
 * Per-root stage totals of a trace: for every root span (a traced op
 * or a probe block), the summed duration and self time of each span
 * name at or beneath it, keyed "cat.name".
 */
struct StageTable
{
    struct Root
    {
        std::string key;
        std::map<std::string, double> total_s;
        std::map<std::string, double> self_s;
    };
    std::vector<Root> roots;

    static StageTable
    build(const std::vector<s2ta::obs::TraceEvent> &events)
    {
        using s2ta::obs::TraceEvent;
        std::map<uint32_t, std::vector<const TraceEvent *>> by_thread;
        for (const TraceEvent &ev : events) {
            if (ev.phase == TraceEvent::Phase::Complete)
                by_thread[ev.tid].push_back(&ev);
        }
        StageTable table;
        for (auto &[tid, evs] : by_thread) {
            // Parents first: earlier start, then longer duration.
            std::sort(evs.begin(), evs.end(),
                      [](const TraceEvent *a, const TraceEvent *b) {
                          if (a->ts_ns != b->ts_ns)
                              return a->ts_ns < b->ts_ns;
                          return a->dur_ns > b->dur_ns;
                      });
            struct Open
            {
                const TraceEvent *ev;
                int64_t child_ns;
            };
            std::vector<Open> stack;
            size_t root = 0;
            const auto close = [&] {
                const Open o = stack.back();
                stack.pop_back();
                const std::string key =
                    std::string(o.ev->cat) + "." + o.ev->name;
                StageTable::Root &r = table.roots[root];
                r.total_s[key] += o.ev->dur_ns * 1e-9;
                r.self_s[key] += (o.ev->dur_ns - o.child_ns) * 1e-9;
                if (!stack.empty())
                    stack.back().child_ns += o.ev->dur_ns;
            };
            for (const TraceEvent *ev : evs) {
                while (!stack.empty() &&
                       ev->ts_ns >= stack.back().ev->ts_ns +
                                        stack.back().ev->dur_ns)
                    close();
                if (stack.empty()) {
                    root = table.roots.size();
                    table.roots.push_back(
                        {std::string(ev->cat) + "." + ev->name, {}, {}});
                }
                stack.push_back({ev, 0});
            }
            while (!stack.empty())
                close();
        }
        return table;
    }
};

} // namespace perfbench

#endif // PERFBENCH_STAGES_HH
