// Package workload generates synthetic product structures: complete
// β-ary trees of depth δ whose branches are visible to the user with
// probability σ, padded so that the average node record matches the
// paper's 512 B. It substitutes for DaimlerChrysler's proprietary
// product data — the paper's evaluation characterizes trees only by
// (δ, β, σ, node size), which the generator reproduces exactly.
//
// Internal nodes are assemblies ("assy"), leaves are single parts
// ("comp"), and the parent/child relation is stored in "link" rows with
// effectivities and structure options, following the paper's Figure 2
// schema (extended with the attributes the paper's rule examples use:
// make_or_buy, checkedout, weight, ...).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"pdmtune/internal/minisql"
)

// Object ID ranges per table keep ids disjoint, like the paper's example
// (assemblies 1.., components 101.., links 1001..).
const (
	CompIDBase = 1_000_000
	LinkIDBase = 2_000_000
	SpecIDBase = 3_000_000
)

// VisibleOption is the structure option every user has selected; links
// carrying it are traversable ("visible").
const VisibleOption = "base"

// HiddenOption marks links whose structure options do not overlap the
// user's selection.
const HiddenOption = "opt17"

// Config describes one product structure.
type Config struct {
	// ProdID identifies the product; all node rows carry it so that the
	// paper's set-oriented "Query" action can fetch a tree in one query.
	ProdID int64
	// Depth is δ, Branch is β.
	Depth  int
	Branch int
	// Sigma is σ, the probability that a link is visible to the user.
	Sigma float64
	// PadBytes sizes the filler "data" attribute of each node so the
	// average encoded node record is ~512 B (DefaultPadBytes when 0).
	PadBytes int
	// Seed makes generation deterministic.
	Seed int64
	// RandomVisibility draws link visibility iid with probability σ.
	// When false (default) an error-diffusion scheme makes the number of
	// visible children of every visible node track σ·β exactly on
	// average, so simulated node counts match the model's (σβ)^i.
	RandomVisibility bool
	// SpecFraction is the fraction of components that receive a
	// specification document (for ∃structure rules). Default 0.5.
	SpecFraction float64
}

// DefaultPadBytes pads node rows to roughly the paper's 512 B average
// (the remaining attributes plus wire encoding overhead make up the rest).
const DefaultPadBytes = 420

// Node is the generator's in-memory view of one product node, used by
// tests and experiments to know ground truth (e.g. expected visibility).
type Node struct {
	Type     string // "assy" or "comp"
	ObID     int64
	Name     string
	Level    int
	Parent   int64 // 0 for the root
	LinkID   int64 // link connecting to the parent (0 for the root)
	Visible  bool  // every link on the path from the root is visible
	LinkVis  bool  // the link to the parent itself is visible
	HasSpec  bool
	Children []int64
}

// Product is the generated ground truth.
type Product struct {
	Config Config
	RootID int64
	// Nodes maps obid to ground truth (including the root).
	Nodes map[int64]*Node
	// VisibleCount[i] is the number of visible nodes at level i (root =
	// level 0, always visible).
	VisibleCount []int
	// TotalCount[i] is the total number of nodes at level i.
	TotalCount []int
}

// VisibleNodes returns the number of visible nodes below the root.
func (p *Product) VisibleNodes() int {
	n := 0
	for i := 1; i < len(p.VisibleCount); i++ {
		n += p.VisibleCount[i]
	}
	return n
}

// AllNodes returns the total number of nodes below the root.
func (p *Product) AllNodes() int {
	n := 0
	for i := 1; i < len(p.TotalCount); i++ {
		n += p.TotalCount[i]
	}
	return n
}

// Schema returns the DDL of the PDM database: the paper's Figure 2
// tables extended with the attributes its rule examples reference, plus
// the indexes a production deployment would have.
func Schema() string {
	return `
CREATE TABLE IF NOT EXISTS assy (
  type VARCHAR(8) NOT NULL,
  obid INTEGER PRIMARY KEY,
  prod INTEGER NOT NULL,
  name VARCHAR(32) NOT NULL,
  dec VARCHAR(1) NOT NULL,
  make_or_buy VARCHAR(4) NOT NULL,
  state VARCHAR(12) NOT NULL,
  weight FLOAT,
  checkedout BOOLEAN NOT NULL,
  checkedout_by VARCHAR(16),
  path_opt TEXT NOT NULL,
  data TEXT
);
CREATE TABLE IF NOT EXISTS comp (
  type VARCHAR(8) NOT NULL,
  obid INTEGER PRIMARY KEY,
  prod INTEGER NOT NULL,
  name VARCHAR(32) NOT NULL,
  material VARCHAR(12) NOT NULL,
  state VARCHAR(12) NOT NULL,
  weight FLOAT,
  checkedout BOOLEAN NOT NULL,
  checkedout_by VARCHAR(16),
  path_opt TEXT NOT NULL,
  data TEXT
);
CREATE TABLE IF NOT EXISTS link (
  type VARCHAR(8) NOT NULL,
  obid INTEGER PRIMARY KEY,
  left INTEGER NOT NULL,
  right INTEGER NOT NULL,
  eff_from INTEGER NOT NULL,
  eff_to INTEGER NOT NULL,
  strc_opt TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS spec (
  type VARCHAR(8) NOT NULL,
  obid INTEGER PRIMARY KEY,
  name VARCHAR(32) NOT NULL,
  doc TEXT
);
CREATE TABLE IF NOT EXISTS specified_by (
  left INTEGER NOT NULL,
  right INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS link_left_idx ON link (left);
CREATE INDEX IF NOT EXISTS link_right_idx ON link (right);
CREATE INDEX IF NOT EXISTS specified_by_left_idx ON specified_by (left);
CREATE INDEX IF NOT EXISTS assy_prod_idx ON assy (prod);
CREATE INDEX IF NOT EXISTS comp_prod_idx ON comp (prod);
CREATE INDEX IF NOT EXISTS assy_path_opt_idx ON assy (path_opt);
CREATE INDEX IF NOT EXISTS comp_path_opt_idx ON comp (path_opt);
`
}

// Generate creates the product tree and loads it into the database
// through SQL, returning the ground truth.
func Generate(s *minisql.Session, cfg Config) (*Product, error) {
	if cfg.Depth < 1 || cfg.Branch < 1 {
		return nil, fmt.Errorf("workload: depth and branch must be >= 1, got δ=%d β=%d", cfg.Depth, cfg.Branch)
	}
	if cfg.Sigma < 0 || cfg.Sigma > 1 {
		return nil, fmt.Errorf("workload: sigma must be in [0,1], got %g", cfg.Sigma)
	}
	if cfg.ProdID == 0 {
		cfg.ProdID = 1
	}
	if cfg.PadBytes == 0 {
		cfg.PadBytes = DefaultPadBytes
	}
	if cfg.SpecFraction == 0 {
		cfg.SpecFraction = 0.5
	}
	if _, err := s.ExecScript(Schema()); err != nil {
		return nil, fmt.Errorf("workload: creating schema: %v", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pad := strings.Repeat("x", cfg.PadBytes)
	prod := &Product{
		Config:       cfg,
		Nodes:        map[int64]*Node{},
		VisibleCount: make([]int, cfg.Depth+1),
		TotalCount:   make([]int, cfg.Depth+1),
	}

	var nextAssy = cfg.ProdID * 100_000 // keep products disjoint
	if nextAssy == 0 {
		nextAssy = 1
	}
	var nextComp = CompIDBase + nextAssy
	var nextLink = LinkIDBase + nextAssy
	var nextSpec = SpecIDBase + nextAssy

	loader := newBatchLoader(s)

	newAssy := func(level int, parent, linkID int64, visible, linkVis bool) (*Node, error) {
		id := nextAssy
		nextAssy++
		n := &Node{Type: "assy", ObID: id, Name: fmt.Sprintf("Assy%d", id), Level: level,
			Parent: parent, LinkID: linkID, Visible: visible, LinkVis: linkVis}
		prod.Nodes[id] = n
		prod.TotalCount[level]++
		if visible {
			prod.VisibleCount[level]++
		}
		mob := "make"
		if rng.Intn(5) == 0 {
			mob = "buy"
		}
		dec := "+"
		if rng.Intn(10) == 0 {
			dec = "-"
		}
		pathOpt := VisibleOption
		if !visible {
			pathOpt = HiddenOption
		}
		err := loader.add("assy",
			fmt.Sprintf("('assy', %d, %d, '%s', '%s', '%s', 'released', %.2f, FALSE, NULL, '%s', '%s')",
				id, cfg.ProdID, n.Name, dec, mob, 0.5+rng.Float64()*10, pathOpt, pad))
		return n, err
	}
	newComp := func(level int, parent, linkID int64, visible, linkVis bool) (*Node, error) {
		id := nextComp
		nextComp++
		n := &Node{Type: "comp", ObID: id, Name: fmt.Sprintf("Comp%d", id), Level: level,
			Parent: parent, LinkID: linkID, Visible: visible, LinkVis: linkVis}
		prod.Nodes[id] = n
		prod.TotalCount[level]++
		if visible {
			prod.VisibleCount[level]++
		}
		materials := [...]string{"steel", "aluminium", "plastic", "rubber"}
		pathOpt := VisibleOption
		if !visible {
			pathOpt = HiddenOption
		}
		if err := loader.add("comp",
			fmt.Sprintf("('comp', %d, %d, '%s', '%s', 'released', %.3f, FALSE, NULL, '%s', '%s')",
				id, cfg.ProdID, n.Name, materials[rng.Intn(len(materials))], 0.01+rng.Float64(), pathOpt, pad)); err != nil {
			return nil, err
		}
		if rng.Float64() < cfg.SpecFraction {
			n.HasSpec = true
			sid := nextSpec
			nextSpec++
			if err := loader.add("spec",
				fmt.Sprintf("('spec', %d, 'Spec%d', 'doc')", sid, sid)); err != nil {
				return nil, err
			}
			if err := loader.add("specified_by", fmt.Sprintf("(%d, %d)", id, sid)); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	newLink := func(parent, child int64, visible bool) (int64, error) {
		id := nextLink
		nextLink++
		opt := VisibleOption
		if !visible {
			opt = HiddenOption
		}
		// Effectivities: visible links cover the user's default unit (5);
		// ranges vary so effectivity rules have something to filter.
		effFrom, effTo := int64(1), int64(10)
		if rng.Intn(3) == 0 {
			effFrom, effTo = 1, 7
		}
		return id, loader.add("link",
			fmt.Sprintf("('link', %d, %d, %d, %d, %d, '%s')", id, parent, child, effFrom, effTo, opt))
	}

	root, err := newAssy(0, 0, 0, true, true)
	if err != nil {
		return nil, err
	}
	prod.RootID = root.ObID

	// Error diffusion so every visible parent has ≈ σ·β visible children.
	carry := 0.0
	visibleChildren := func() int {
		if cfg.RandomVisibility {
			k := 0
			for i := 0; i < cfg.Branch; i++ {
				if rng.Float64() < cfg.Sigma {
					k++
				}
			}
			return k
		}
		exact := cfg.Sigma*float64(cfg.Branch) + carry
		k := int(exact)
		carry = exact - float64(k)
		if k > cfg.Branch {
			k = cfg.Branch
		}
		return k
	}

	frontier := []*Node{root}
	for level := 1; level <= cfg.Depth; level++ {
		isLeaf := level == cfg.Depth
		var next []*Node
		for _, parent := range frontier {
			nVis := 0
			if parent.Visible {
				nVis = visibleChildren()
			}
			// Shuffle which child positions are visible.
			perm := rng.Perm(cfg.Branch)
			visAt := make([]bool, cfg.Branch)
			for i := 0; i < nVis; i++ {
				visAt[perm[i]] = true
			}
			for i := 0; i < cfg.Branch; i++ {
				linkVis := visAt[i]
				childVisible := parent.Visible && linkVis
				var child *Node
				var err error
				// Link ids are assigned before the child so they pair up.
				if isLeaf {
					child, err = newComp(level, parent.ObID, 0, childVisible, linkVis)
				} else {
					child, err = newAssy(level, parent.ObID, 0, childVisible, linkVis)
				}
				if err != nil {
					return nil, err
				}
				linkID, err := newLink(parent.ObID, child.ObID, linkVis)
				if err != nil {
					return nil, err
				}
				child.LinkID = linkID
				parent.Children = append(parent.Children, child.ObID)
				next = append(next, child)
			}
		}
		frontier = next
	}
	if err := loader.flush(); err != nil {
		return nil, err
	}
	return prod, nil
}

// batchLoader batches INSERT statements per table to keep generation fast.
type batchLoader struct {
	s       *minisql.Session
	pending map[string][]string
	sizes   map[string]int
}

const batchRows = 200

func newBatchLoader(s *minisql.Session) *batchLoader {
	return &batchLoader{s: s, pending: map[string][]string{}, sizes: map[string]int{}}
}

func (b *batchLoader) add(table, valuesTuple string) error {
	b.pending[table] = append(b.pending[table], valuesTuple)
	if len(b.pending[table]) >= batchRows {
		return b.flushTable(table)
	}
	return nil
}

func (b *batchLoader) flushTable(table string) error {
	rows := b.pending[table]
	if len(rows) == 0 {
		return nil
	}
	sql := "INSERT INTO " + table + " VALUES " + strings.Join(rows, ", ")
	b.pending[table] = b.pending[table][:0]
	_, e := b.s.Exec(sql)
	return e
}

func (b *batchLoader) flush() error {
	for table := range b.pending {
		if e := b.flushTable(table); e != nil {
			return e
		}
	}
	return nil
}

// LoadPaperExample loads the paper's Figure 2 example data (the 8
// assemblies / 7 components / 8 links tree) into the PDM schema, giving
// examples and tests the exact object ids of the paper.
func LoadPaperExample(s *minisql.Session) error {
	if _, err := s.ExecScript(Schema()); err != nil {
		return err
	}
	script := `
INSERT INTO assy (type, obid, prod, name, dec, make_or_buy, state, weight, checkedout, checkedout_by, path_opt, data) VALUES
  ('assy', 1, 1, 'Assy1', '+', 'make', 'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 2, 1, 'Assy2', '+', 'make', 'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 3, 1, 'Assy3', '+', 'buy',  'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 4, 1, 'Assy4', '+', 'make', 'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 5, 1, 'Assy5', '-', 'make', 'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 6, 1, 'Assy6', '-', 'make', 'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 7, 1, 'Assy7', '-', 'make', 'released', 1.0, FALSE, NULL, 'base', ''),
  ('assy', 8, 1, 'Assy8', '-', 'make', 'released', 1.0, FALSE, NULL, 'base', '');
INSERT INTO comp (type, obid, prod, name, material, state, weight, checkedout, checkedout_by, path_opt, data) VALUES
  ('comp', 101, 1, 'Comp1', 'steel',   'released', 0.1, FALSE, NULL, 'base', ''),
  ('comp', 102, 1, 'Comp2', 'steel',   'released', 0.1, FALSE, NULL, 'base', ''),
  ('comp', 103, 1, 'Comp3', 'plastic', 'released', 0.1, FALSE, NULL, 'base', ''),
  ('comp', 104, 1, 'Comp4', 'plastic', 'released', 0.1, FALSE, NULL, 'base', ''),
  ('comp', 105, 1, 'Comp5', 'rubber',  'released', 0.1, FALSE, NULL, 'base', ''),
  ('comp', 106, 1, 'Comp6', 'rubber',  'released', 0.1, FALSE, NULL, 'base', ''),
  ('comp', 107, 1, 'Comp7', 'steel',   'released', 0.1, FALSE, NULL, 'base', '');
INSERT INTO link (type, obid, left, right, eff_from, eff_to, strc_opt) VALUES
  ('link', 1001, 1, 2, 1, 3, 'base'),
  ('link', 1002, 1, 3, 4, 10, 'base'),
  ('link', 1003, 2, 4, 1, 10, 'base'),
  ('link', 1004, 2, 5, 1, 10, 'base'),
  ('link', 1005, 4, 101, 6, 10, 'base'),
  ('link', 1006, 4, 102, 1, 5, 'base'),
  ('link', 1007, 5, 103, 1, 10, 'base'),
  ('link', 1008, 5, 104, 1, 10, 'base');
INSERT INTO spec (type, obid, name, doc) VALUES
  ('spec', 9001, 'Spec1', 'doc'), ('spec', 9002, 'Spec3', 'doc');
INSERT INTO specified_by (left, right) VALUES (101, 9001), (103, 9002);
`
	_, e := s.ExecScript(script)
	return e
}
