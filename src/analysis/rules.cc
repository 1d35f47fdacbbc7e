/**
 * @file
 * Rule registry: the catalogue order here is the documentation order
 * in docs/static-analysis.md — keep them in sync.
 */

#include "analysis/rules.hh"

namespace mparch::analysis {

const std::vector<const Rule *> &
allRules()
{
    static const std::vector<const Rule *> rules = {
        &bannedApiRule(),
        &rngDisciplineRule(),
        &orderedSerializationRule(),
        &hookCoverageRule(),
        &includeHygieneRule(),
        &hostMathRule(),
    };
    return rules;
}

const Rule *
findRule(const std::string &name)
{
    for (const Rule *rule : allRules())
        if (name == rule->name())
            return rule;
    return nullptr;
}

} // namespace mparch::analysis
