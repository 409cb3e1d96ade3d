package costmodel

// Predictors for the engineering-change workloads (where-used, ECO
// propagation, bulk reporting). They follow the same packet conventions
// as formulas (1)-(3): every request is rounded up to whole packets
// (min one), every response pays the half-filled last packet, and each
// statement costs two communications.

// DefaultReportRowBytes is the wire size of one reporting-scan row:
// a tagged 8-byte object id, a tagged 8-byte weight and a 1-byte
// checked-out flag, plus value framing.
const DefaultReportRowBytes = 20

// reportRowBytes returns the per-row wire size of the reporting scan —
// NodeBytes does not apply here because the scan projects three columns
// instead of shipping whole node records.
func (m Model) reportRowBytes() float64 {
	return DefaultReportRowBytes
}

// finish fills in the derived latency/transfer/total fields of an
// estimate whose Queries, Communications, Batches, TransmittedNodes and
// VolumeBytes are set.
func (m Model) finish(est Estimate) Estimate {
	if est.Batches == 0 {
		est.Batches = est.Queries
	}
	est.LatencySec = est.Communications * m.Net.LatencySec
	est.TransferSec = est.VolumeBytes * 8 / (m.Net.RateKbps * 1024)
	est.TotalSec = est.LatencySec + est.TransferSec
	return est
}

// PredictWhereUsed estimates the where-used action for a part whose
// ancestor chain is `chain` assemblies deep: one upward level query per
// ancestor level plus the final empty level that terminates the walk,
// then one set-oriented record fetch shipping the `chain` ancestor
// records in the unified layout.
func (m Model) PredictWhereUsed(chain int) Estimate {
	sizeP := m.Net.PacketBytes
	q := float64(chain) + 2
	var est Estimate
	est.Queries = q
	est.Communications = 2 * q
	est.TransmittedNodes = float64(chain)
	est.VolumeBytes = q*sizeP + est.TransmittedNodes*m.nodeBytes() + q*sizeP/2
	return m.finish(est)
}

// PredictECO estimates an engineering-change propagation along a
// `chain`-deep ancestor closure: the upward walk (chain+1 level
// queries), the part's type lookup, and two conditional UPDATE
// statements (the part, then the affected assemblies). Only ids and
// row counts cross the wire — no node records.
func (m Model) PredictECO(chain int) Estimate {
	sizeP := m.Net.PacketBytes
	q := float64(chain) + 4
	var est Estimate
	est.Queries = q
	est.Communications = 2 * q
	est.VolumeBytes = q*sizeP + q*sizeP/2
	return m.finish(est)
}

// PredictReport estimates the bulk reporting scan over a product of
// `rows` nodes: two set-oriented scans (assemblies, components) whose
// answers together carry one three-column row per node.
func (m Model) PredictReport(rows int) Estimate {
	sizeP := m.Net.PacketBytes
	var est Estimate
	est.Queries = 2
	est.Communications = 4
	est.TransmittedNodes = float64(rows)
	est.VolumeBytes = 2*sizeP + float64(rows)*m.reportRowBytes() + 2*sizeP/2
	return m.finish(est)
}
