#include "search/search_budget.h"

#include <cmath>

#include "common/strutil.h"

namespace cimmlc {

Status
SearchBudget::validate() const
{
    if (max_full_evals < 0)
        return invalidArgument("search budget 'evals' must be >= 0 "
                               "(0 disables budgeting)");
    if (!(proxy_prefix_fraction >= 0.0 && proxy_prefix_fraction <= 1.0))
        return invalidArgument(
            "search budget 'proxy_prefix_fraction' must be in [0, 1]");
    return Status::ok();
}

Status
SearchBudget::validateForHalving() const
{
    CIMMLC_RETURN_IF_ERROR(validate());
    if (enabled() && !proxy_opt_none && proxy_prefix_fraction <= 0.0)
        return invalidArgument(
            "search budget proxy stage must differ from full fidelity: "
            "enable proxy_opt_none or set proxy_prefix_fraction > 0");
    return Status::ok();
}

std::string
SearchBudget::toString() const
{
    if (!enabled())
        return "exhaustive";
    std::string proxy;
    if (proxy_opt_none)
        proxy = "opt=none";
    if (proxy_prefix_fraction > 0.0) {
        if (!proxy.empty())
            proxy += "+";
        proxy += strformat("prefix%.2g", proxy_prefix_fraction);
    }
    return strformat("evals<=%lld proxy[%s]",
                     static_cast<long long>(max_full_evals),
                     proxy.c_str());
}

StatusOr<SearchBudget>
searchBudgetFromConfig(const ConfigValue &doc)
{
    SearchBudget budget;
    if (doc.isNumber()) {
        // Range-check before the int64 cast: casting an
        // unrepresentable double is undefined behavior, and fuzzed
        // documents do produce 1e300-class values. 2^63 is exactly
        // representable, so `< 2^63` admits every valid int64.
        const double raw = doc.asNumber();
        if (!(raw >= 0.0) || raw >= 9223372036854775808.0
            || raw != std::floor(raw))
            return parseError("search budget must be a non-negative "
                              "integer evaluation count");
        budget.max_full_evals = static_cast<std::int64_t>(raw);
    } else if (doc.isObject()) {
        for (const auto &[key, value] : doc.asObject()) {
            (void)value;
            if (key != "evals" && key != "proxy_opt_none"
                && key != "proxy_prefix_fraction")
                return parseError("search budget has unknown key '" + key
                                  + "' (expected evals, proxy_opt_none, "
                                    "proxy_prefix_fraction)");
        }
        if (doc.has("evals")) {
            const ConfigValue evals = doc.get("evals").value();
            if (!evals.isNumber())
                return parseError(
                    "search budget 'evals' must be a number");
            CIMMLC_ASSIGN_OR_RETURN(const SearchBudget from_number,
                                    searchBudgetFromConfig(evals));
            budget.max_full_evals = from_number.max_full_evals;
        } else {
            return parseError("search budget object needs an 'evals' "
                              "count");
        }
        if (doc.has("proxy_opt_none")) {
            const ConfigValue flag = doc.get("proxy_opt_none").value();
            if (!flag.isBool())
                return parseError(
                    "search budget 'proxy_opt_none' must be a bool");
            budget.proxy_opt_none = flag.asBool();
        }
        if (doc.has("proxy_prefix_fraction")) {
            const ConfigValue fraction =
                doc.get("proxy_prefix_fraction").value();
            if (!fraction.isNumber())
                return parseError("search budget 'proxy_prefix_fraction' "
                                  "must be a number");
            budget.proxy_prefix_fraction = fraction.asNumber();
        }
    } else {
        return parseError("search budget must be a number (the full-"
                          "evaluation cap) or an object with an 'evals' "
                          "key");
    }
    CIMMLC_RETURN_IF_ERROR(budget.validate());
    return budget;
}

ConfigValue
searchBudgetToConfig(const SearchBudget &budget)
{
    ConfigValue::Object doc;
    doc["evals"] = ConfigValue::makeNumber(
        static_cast<double>(budget.max_full_evals));
    doc["proxy_opt_none"] = ConfigValue::makeBool(budget.proxy_opt_none);
    doc["proxy_prefix_fraction"] =
        ConfigValue::makeNumber(budget.proxy_prefix_fraction);
    return ConfigValue::makeObject(std::move(doc));
}

} // namespace cimmlc
