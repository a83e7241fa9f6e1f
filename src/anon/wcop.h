#ifndef WCOP_ANON_WCOP_H_
#define WCOP_ANON_WCOP_H_

/// Umbrella header of the WCOP suite: include this to get the four paper
/// algorithms (WCOP-NV / CT / SA / B), the W4M and NWA baselines, the
/// metrics, and the independent anonymity verifier.

#include "anon/colocalization.h"
#include "anon/greedy_clustering.h"
#include "anon/agglomerative.h"
#include "anon/mahdavifar.h"
#include "anon/metrics.h"
#include "anon/nwa.h"
#include "anon/report_json.h"
#include "anon/translation.h"
#include "anon/types.h"
#include "anon/uncertainty.h"
#include "anon/utility.h"
#include "anon/verifier.h"
#include "anon/wcop_b.h"
#include "anon/wcop_ct.h"
#include "anon/wcop_nv.h"
#include "anon/wcop_sa.h"

#endif  // WCOP_ANON_WCOP_H_
