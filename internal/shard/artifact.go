package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sstiming/internal/core"
	"sstiming/internal/device"
	"sstiming/internal/store"
)

// Campaign directory layout (<out>.campaign/):
//
//	campaign.json            — schema version, campaign fingerprint hash and
//	                           the shard table; a resume whose plan differs
//	                           is refused with store.ErrStale.
//	shards/<id>/a<gen>/      — one directory per lease attempt. A networked
//	                           coordinator creates it, synced, when it grants
//	                           the lease, so a restarted coordinator never
//	                           reuses the generation. A worker sharing the
//	                           directory keeps the attempt's write-ahead
//	                           journal there (store.Journal layout); attempts
//	                           never share files, so a hung worker of attempt
//	                           g cannot corrupt attempt g+1.
//	shards/<id>/shard.json   — the promoted artefact, the one durable copy:
//	                           the coordinator writes a claimed artefact here
//	                           (atomically) only after it verifies. Promotion
//	                           is the shard's commit point; merge reads
//	                           promoted artefacts only.

const (
	campaignMetaName = "campaign.json"
	shardsDirName    = "shards"
	artifactName     = "shard.json"
)

// artifact is the durable result of one shard: the characterised cell
// models plus enough integrity metadata to verify them independently of the
// worker that produced them.
type artifact struct {
	SchemaVersion int
	// Fingerprint is the campaign fingerprint hash — a shard characterised
	// under different options must never merge into this campaign.
	Fingerprint string
	// ShardID names the shard within the campaign plan.
	ShardID string
	// Cells holds the shard's models keyed by cell name.
	Cells map[string]*core.CellModel
	// CellSHA256 maps each cell to the digest of its canonical encoding
	// (store.CellHash), verified before the artefact is accepted.
	CellSHA256 map[string]string
}

// encodeArtifact serialises a completed shard's models. The model set must
// cover the shard spec exactly.
func encodeArtifact(fp store.Fingerprint, spec Spec, models map[string]*core.CellModel) ([]byte, error) {
	if len(models) != len(spec.Cells) {
		return nil, fmt.Errorf("shard %s: %d models for %d cells", spec.ID, len(models), len(spec.Cells))
	}
	a := artifact{
		SchemaVersion: SchemaVersion,
		Fingerprint:   fp.Hash(),
		ShardID:       spec.ID,
		Cells:         models,
		CellSHA256:    make(map[string]string, len(models)),
	}
	for _, name := range spec.Cells {
		m, ok := models[name]
		if !ok || m == nil {
			return nil, fmt.Errorf("shard %s: missing model for cell %q", spec.ID, name)
		}
		h, err := store.CellHash(m)
		if err != nil {
			return nil, err
		}
		a.CellSHA256[name] = h
	}
	b, err := json.MarshalIndent(&a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encoding artifact %s: %w", spec.ID, err)
	}
	return append(b, '\n'), nil
}

// decodeArtifact parses and fully verifies shard artefact bytes against the
// campaign fingerprint and the shard's spec. Every failure is typed with the
// store load taxonomy: undecodable or integrity-violating bytes are
// store.ErrCorrupt, a schema from another build is store.ErrSchemaMismatch,
// and a verifiably valid artefact for the wrong campaign or shard is
// store.ErrStale. No partially-verified model set is ever returned.
func decodeArtifact(b []byte, fp store.Fingerprint, spec Spec) (map[string]*core.CellModel, error) {
	var a artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("%w: shard %s artifact is not valid JSON: %v", store.ErrCorrupt, spec.ID, err)
	}
	if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%w: shard artifact schema %d, this build reads %d",
			store.ErrSchemaMismatch, a.SchemaVersion, SchemaVersion)
	}
	if a.Fingerprint != fp.Hash() {
		return nil, fmt.Errorf("%w: shard %s artifact was produced by a different campaign", store.ErrStale, spec.ID)
	}
	if a.ShardID != spec.ID {
		return nil, fmt.Errorf("%w: artifact names shard %q, expected %q", store.ErrStale, a.ShardID, spec.ID)
	}
	if len(a.Cells) != len(spec.Cells) {
		return nil, fmt.Errorf("%w: shard %s artifact holds %d cells, spec lists %d",
			store.ErrCorrupt, spec.ID, len(a.Cells), len(spec.Cells))
	}
	for _, name := range spec.Cells {
		m, ok := a.Cells[name]
		if !ok || m == nil {
			return nil, fmt.Errorf("%w: shard %s artifact is missing cell %q", store.ErrCorrupt, spec.ID, name)
		}
		if m.Name != name {
			return nil, fmt.Errorf("%w: shard %s artifact cell %q carries name %q",
				store.ErrCorrupt, spec.ID, name, m.Name)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("%w: shard %s cell %q: %v", store.ErrCorrupt, spec.ID, name, err)
		}
		h, err := store.CellHash(m)
		if err != nil {
			return nil, err
		}
		if want := a.CellSHA256[name]; want != h {
			return nil, fmt.Errorf("%w: shard %s cell %q hash mismatch", store.ErrCorrupt, spec.ID, name)
		}
	}
	return a.Cells, nil
}

// campaignMeta is the durable campaign plan: the shard table every
// coordinator restart must agree on.
type campaignMeta struct {
	SchemaVersion int
	Fingerprint   string
	Shards        []Spec
}

// writeCampaignMeta publishes the plan into the campaign directory.
func writeCampaignMeta(dir string, fp store.Fingerprint, specs []Spec) error {
	b, err := json.MarshalIndent(&campaignMeta{
		SchemaVersion: SchemaVersion,
		Fingerprint:   fp.Hash(),
		Shards:        specs,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding campaign meta: %w", err)
	}
	return store.AtomicWrite(filepath.Join(dir, campaignMetaName), append(b, '\n'))
}

// loadCampaignMeta reads and verifies the plan against the resuming
// campaign's fingerprint and freshly-derived shard table.
func loadCampaignMeta(dir string, fp store.Fingerprint, specs []Spec) error {
	b, err := os.ReadFile(filepath.Join(dir, campaignMetaName))
	if err != nil {
		return fmt.Errorf("%w: campaign %s has no readable meta: %v", store.ErrStale, dir, err)
	}
	var meta campaignMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		return fmt.Errorf("%w: campaign meta is not valid JSON: %v", store.ErrCorrupt, err)
	}
	if meta.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: campaign schema %d, this build reads %d",
			store.ErrSchemaMismatch, meta.SchemaVersion, SchemaVersion)
	}
	if meta.Fingerprint != fp.Hash() {
		return fmt.Errorf("%w: campaign directory was written with different options "+
			"(grid/cells/tech/solver settings changed); rerun without -resume", store.ErrStale)
	}
	if len(meta.Shards) != len(specs) {
		return fmt.Errorf("%w: campaign plan has %d shards, this run derives %d "+
			"(shard size changed); rerun without -resume", store.ErrStale, len(meta.Shards), len(specs))
	}
	for i, s := range meta.Shards {
		want := specs[i]
		if s.ID != want.ID || s.Index != want.Index || len(s.Cells) != len(want.Cells) {
			return fmt.Errorf("%w: campaign shard %d differs from the derived plan; rerun without -resume",
				store.ErrStale, i)
		}
		for j, c := range s.Cells {
			if c != want.Cells[j] {
				return fmt.Errorf("%w: campaign shard %s cell list differs from the derived plan; "+
					"rerun without -resume", store.ErrStale, s.ID)
			}
		}
	}
	return nil
}

// shardDir returns shards/<id> under the campaign directory.
func shardDir(campaignDir, id string) string {
	return filepath.Join(campaignDir, shardsDirName, id)
}

// attemptDir returns the per-lease-attempt directory shards/<id>/a<gen>.
func attemptDir(campaignDir, id string, gen int) string {
	return filepath.Join(shardDir(campaignDir, id), fmt.Sprintf("a%d", gen))
}

// promotedPath returns the committed artefact path shards/<id>/shard.json.
func promotedPath(campaignDir, id string) string {
	return filepath.Join(shardDir(campaignDir, id), artifactName)
}

// merge assembles the campaign library from per-shard artefact bytes. It is
// a pure function of its inputs (no filesystem, no clock) so it can be
// exhaustively fuzzed: arts maps shard ID to promoted artefact bytes, and
// any shard absent from arts is treated as quarantined — its cells are
// substituted from the closed-form analytic fallback and counted against
// the budget (fraction of campaign cells; budget < 0 means no limit).
// Malformed, truncated, mis-fingerprinted or duplicate-cell
// inputs return typed errors; merge never panics and never silently drops a
// cell — the merged library covers the campaign cell set exactly or the
// merge fails.
func merge(fp store.Fingerprint, specs []Spec, arts map[string][]byte, tech *device.Tech, budget float64) (lib *core.Library, quarantinedCells []string, err error) {
	if tech == nil {
		return nil, nil, fmt.Errorf("shard: merge needs a technology for the analytic fallback")
	}
	total := 0
	for _, spec := range specs {
		total += len(spec.Cells)
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("%w: campaign plan has no cells", store.ErrCorrupt)
	}
	cellsByName := make(map[string]*core.CellModel, total)
	owner := make(map[string]string, total)
	for _, spec := range specs {
		b, ok := arts[spec.ID]
		if !ok {
			for _, name := range spec.Cells {
				m, err := store.AnalyticModel(name, tech)
				if err != nil {
					return nil, nil, fmt.Errorf("shard %s quarantined and cell %q has no analytic fallback: %w",
						spec.ID, name, err)
				}
				if prev, dup := owner[name]; dup {
					return nil, nil, fmt.Errorf("%w: cell %q in shards %s and %s", ErrDuplicateCell, name, prev, spec.ID)
				}
				owner[name] = spec.ID
				cellsByName[name] = m
				quarantinedCells = append(quarantinedCells, name)
			}
			continue
		}
		models, err := decodeArtifact(b, fp, spec)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range spec.Cells {
			if prev, dup := owner[name]; dup {
				return nil, nil, fmt.Errorf("%w: cell %q in shards %s and %s", ErrDuplicateCell, name, prev, spec.ID)
			}
			owner[name] = spec.ID
			cellsByName[name] = models[name]
		}
	}
	if len(cellsByName) != total {
		// Unreachable while owner[] guards duplicates, but the no-silent-drop
		// contract is cheap to enforce directly.
		return nil, nil, fmt.Errorf("%w: merged %d cells, campaign lists %d", store.ErrCorrupt, len(cellsByName), total)
	}
	if budget >= 0 && total > 0 {
		if frac := float64(len(quarantinedCells)) / float64(total); frac > budget {
			sort.Strings(quarantinedCells)
			return nil, quarantinedCells, fmt.Errorf("%w: %d of %d cells (%.0f%%) over budget %.0f%%",
				ErrQuarantineBudget, len(quarantinedCells), total, frac*100, budget*100)
		}
	}
	lib = &core.Library{
		TechName: fp.Tech,
		Vdd:      fp.Vdd,
		Cells:    cellsByName,
	}
	if err := lib.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: merged library invalid: %v", store.ErrCorrupt, err)
	}
	return lib, quarantinedCells, nil
}
