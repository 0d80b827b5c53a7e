/* The returned value of a `return` inside a loop reaches the caller's
   target, not the loop's next iterate. */
volatile int n; int x; int r;
int f(void) { int i; i = 0;
  while (i < 10) { if (i == n) { return 1; } i = i + 1; }
  return 2; }
void main(void) { __astree_input_int(n, 0, 20); r = f(); x = 100 / (r - 1); }
