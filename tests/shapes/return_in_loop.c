/* A `return` inside a loop leaves the function: `r = 2` after the loop
   must not overwrite the `r = 1` of the early return. */
volatile int n; int x; int r;
void g(void) { int i; i = 0; r = 0;
  while (i < 10) { if (i == n) { r = 1; return; } i = i + 1; }
  r = 2; }
void main(void) { __astree_input_int(n, 0, 20); g(); x = 100 / (r - 1); }
