package sqldb

import "repro/internal/sqlparser"

// EvalExpr evaluates an expression outside any query, resolving column
// references through lookup. The CryptDB proxy uses it for in-proxy
// processing (§3.5.1): evaluating projections, sorts and update expressions
// over values it has already decrypted. Aggregates and UDFs are not
// available in this mode: a call to either is rejected before anything is
// evaluated.
func EvalExpr(e sqlparser.Expr, lookup func(table, col string) (Value, error), params []Value) (Value, error) {
	ce, err := (&exprCompiler{}).compile(e)
	if err != nil {
		return Value{}, err
	}
	return ce(&execEnv{params: params, lookup: lookup})
}

// EvalConst evaluates a constant expression (literals, parameters,
// arithmetic over them). It fails on any column reference.
func EvalConst(e sqlparser.Expr, params []Value) (Value, error) {
	return EvalExpr(e, func(table, col string) (Value, error) {
		name := col
		if table != "" {
			name = table + "." + col
		}
		return Value{}, &NotConstError{Ref: name}
	}, params)
}

// NotConstError reports that an expression expected to be constant
// references a column.
type NotConstError struct{ Ref string }

// Error implements the error interface.
func (e *NotConstError) Error() string {
	return "sqldb: expression references column " + e.Ref
}
