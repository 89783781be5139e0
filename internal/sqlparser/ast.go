package sqlparser

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any SQL expression node.
type Expr interface {
	expr()
	String() string
}

// ColType is a column's storage type.
type ColType int

// Column types supported by the engine.
const (
	TypeInt ColType = iota
	TypeText
	TypeBlob
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeText:
		return "TEXT"
	case TypeBlob:
		return "BLOB"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

//
// Expressions
//

// ColRef references a column, optionally qualified by table or alias.
type ColRef struct {
	Table  string
	Column string
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// StrLit is a string literal.
type StrLit struct{ V string }

// BytesLit is a binary literal. The parser emits these from x'..' forms;
// the proxy emits them when substituting ciphertexts into queries.
type BytesLit struct{ V []byte }

// NullLit is the NULL literal.
type NullLit struct{}

// BoolLit is TRUE or FALSE.
type BoolLit struct{ V bool }

// Param is a ? placeholder bound at execution time.
type Param struct{ Index int }

// BinaryExpr applies a binary operator: = != <> < <= > >= + - * / % AND OR
// and the bitwise & | ^ operators.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string
	E  Expr
}

// InExpr is `E [NOT] IN (list)`.
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// LikeExpr is `E [NOT] LIKE pattern`.
type LikeExpr struct {
	E       Expr
	Pattern Expr
	Not     bool
}

// BetweenExpr is `E [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is `E IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// FuncCall is an aggregate or UDF invocation.
type FuncCall struct {
	Name     string // canonical upper-case for builtins
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT c)
	Args     []Expr
}

func (*ColRef) expr()      {}
func (*IntLit) expr()      {}
func (*StrLit) expr()      {}
func (*BytesLit) expr()    {}
func (*NullLit) expr()     {}
func (*BoolLit) expr()     {}
func (*Param) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*InExpr) expr()      {}
func (*LikeExpr) expr()    {}
func (*BetweenExpr) expr() {}
func (*IsNullExpr) expr()  {}
func (*FuncCall) expr()    {}

func (e *ColRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}
func (e *IntLit) String() string { return strconv.FormatInt(e.V, 10) }
func (e *StrLit) String() string {
	return "'" + strings.ReplaceAll(EscapeString(e.V), "'", "''") + "'"
}
func (e *BytesLit) String() string { return "x'" + hex.EncodeToString(e.V) + "'" }
func (*NullLit) String() string    { return "NULL" }
func (e *BoolLit) String() string {
	if e.V {
		return "TRUE"
	}
	return "FALSE"
}
func (e *Param) String() string { return "?" }
func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}
func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.E.String() + ")"
	}
	return "(" + e.Op + e.E.String() + ")"
}
func (e *InExpr) String() string {
	var sb strings.Builder
	sb.WriteString(e.E.String())
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, x := range e.List {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(x.String())
	}
	sb.WriteString(")")
	return sb.String()
}
func (e *LikeExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return e.E.String() + not + " LIKE " + e.Pattern.String()
}
func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return e.E.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}
func (e *IsNullExpr) String() string {
	if e.Not {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}
func (e *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(e.Name)
	sb.WriteString("(")
	if e.Star {
		sb.WriteString("*")
	} else {
		if e.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

//
// Statements
//

// SelectExpr is one item of a SELECT list.
type SelectExpr struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef is one table in the FROM clause. The first ref has JoinOn == nil;
// subsequent refs are INNER JOINs with an ON condition, or cross joins when
// JoinOn is nil.
type TableRef struct {
	Table  string
	Alias  string
	JoinOn Expr
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Exprs    []SelectExpr
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

// InsertStmt is an INSERT with one or more VALUES rows.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is an UPDATE.
type UpdateStmt struct {
	Table       string
	Assignments []Assignment
	Where       Expr
}

// DeleteStmt is a DELETE.
type DeleteStmt struct {
	Table string
	Where Expr
}

// EncForAnnot is the `ENC FOR (ownerCol princType)` column annotation: the
// column is encrypted for the principal of type PrincType named by the value
// of OwnerColumn in the same row (§4.1 step 2).
type EncForAnnot struct {
	OwnerColumn string
	PrincType   string
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    ColType
	Plain   bool         // developer marked non-sensitive: stored unencrypted (§3.5.2)
	MinEnc  string       // lowest onion layer that may be revealed (§3.5.1), e.g. "DET"
	EncFor  *EncForAnnot // multi-principal annotation
	Primary bool
}

// SpeaksForAnnot is the table-level `(a x) SPEAKS FOR (b y) [IF pred]`
// delegation rule (§4.1 step 3). A may be a column of this table, a
// constant, or Table2.col.
type SpeaksForAnnot struct {
	AColumn string // column name in this table, or "tab.col", or constant via AConst
	AConst  string // non-empty if A is a literal principal name
	AType   string
	BColumn string
	BType   string
	If      Expr // optional predicate over row values
}

// CreateTableStmt creates a table, carrying any CryptDB annotations.
type CreateTableStmt struct {
	Name      string
	Cols      []ColumnDef
	SpeaksFor []SpeaksForAnnot
}

// CreateIndexStmt creates an index. Using selects the index structure,
// MySQL-style: "" (default) builds both a hash (equality) and an ordered
// (range) index, "HASH" an equality index only, "BTREE"/"ORDERED" an
// ordered index only.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
	Unique bool
	Using  string
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

// PrincTypeStmt declares principal types (§4.1 step 1).
type PrincTypeStmt struct {
	Names    []string
	External bool
}

// BeginStmt / CommitStmt / RollbackStmt delimit transactions.
type BeginStmt struct{}

// CommitStmt commits the current transaction.
type CommitStmt struct{}

// RollbackStmt aborts the current transaction.
type RollbackStmt struct{}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*PrincTypeStmt) stmt()   {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, e := range s.Exprs {
		if i > 0 {
			sb.WriteString(", ")
		}
		if e.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(e.Expr.String())
		if e.Alias != "" {
			sb.WriteString(" AS " + e.Alias)
		}
	}
	for i, t := range s.From {
		switch {
		case i == 0:
			sb.WriteString(" FROM ")
		case t.JoinOn != nil:
			sb.WriteString(" JOIN ")
		default:
			sb.WriteString(", ")
		}
		sb.WriteString(t.Table)
		if t.Alias != "" {
			sb.WriteString(" " + t.Alias)
		}
		if i > 0 && t.JoinOn != nil {
			sb.WriteString(" ON " + t.JoinOn.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&sb, " LIMIT %d", *s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(&sb, " OFFSET %d", *s.Offset)
	}
	return sb.String()
}

func (s *InsertStmt) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

func (s *UpdateStmt) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Assignments {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column + " = " + a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

func (s *CreateTableStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE " + s.Name + " (")
	for i, c := range s.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + c.Type.String())
		if c.Primary {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.Plain {
			sb.WriteString(" PLAIN")
		}
		if c.MinEnc != "" {
			sb.WriteString(" MINENC " + c.MinEnc)
		}
		if c.EncFor != nil {
			sb.WriteString(" ENC FOR (" + c.EncFor.OwnerColumn + " " + c.EncFor.PrincType + ")")
		}
	}
	for _, sf := range s.SpeaksFor {
		sb.WriteString(", (")
		if sf.AConst != "" {
			sb.WriteString("'" + sf.AConst + "'")
		} else {
			sb.WriteString(sf.AColumn)
		}
		sb.WriteString(" " + sf.AType + ") SPEAKS FOR (" + sf.BColumn + " " + sf.BType + ")")
		if sf.If != nil {
			sb.WriteString(" IF " + sf.If.String())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

func (s *CreateIndexStmt) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	out := "CREATE " + u + "INDEX " + s.Name + " ON " + s.Table + " (" + s.Column + ")"
	if s.Using != "" {
		out += " USING " + s.Using
	}
	return out
}

func (s *DropTableStmt) String() string { return "DROP TABLE " + s.Name }

func (s *PrincTypeStmt) String() string {
	out := "PRINCTYPE " + strings.Join(s.Names, ", ")
	if s.External {
		out += " EXTERNAL"
	}
	return out
}

func (*BeginStmt) String() string    { return "BEGIN" }
func (*CommitStmt) String() string   { return "COMMIT" }
func (*RollbackStmt) String() string { return "ROLLBACK" }
