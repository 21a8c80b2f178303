package craql_test

import (
	"fmt"

	"repro/internal/craql"
)

// ExampleParse shows the Parse/Format round-trip on an executable query:
// formatting a parsed query reproduces an equivalent statement.
func ExampleParse() {
	q, err := craql.Parse("acquire rain from rect(0, 0, 4, 4) rate 10")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(craql.Format(q))
	// Output: ACQUIRE rain FROM RECT(0, 0, 4, 4) RATE 10
}

// ExampleParseStatement shows the EXPLAIN form: ParseStatement sets the
// flag and returns the inner query; the engine answers an EXPLAIN statement
// with the planner's cost table instead of submitting the query.
func ExampleParseStatement() {
	st, err := craql.ParseStatement("EXPLAIN ACQUIRE temp FROM RECT(0, 0, 8, 2) RATE 5")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(st.Explain)
	fmt.Println(craql.Format(st.Query))
	// Output:
	// true
	// ACQUIRE temp FROM RECT(0, 0, 8, 2) RATE 5
}
