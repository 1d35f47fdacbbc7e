/**
 * @file
 * The reliability study (core::runStudy) as a result document.
 *
 * A study renders through the same ResultDoc text/JSON/CSV
 * renderers as every registry experiment, so there is one result
 * format in the tree: a "main" table with one row per precision,
 * then each precision's FIT-reduction-vs-TRE curve in a second
 * table.
 */

#ifndef MPARCH_REPORT_STUDY_HH
#define MPARCH_REPORT_STUDY_HH

#include "core/study.hh"
#include "report/document.hh"

namespace mparch::report {

/** Build the result document of one study. */
ResultDoc studyDocument(const core::StudyResult &result);

} // namespace mparch::report

#endif // MPARCH_REPORT_STUDY_HH
