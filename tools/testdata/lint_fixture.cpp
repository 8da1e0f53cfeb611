// Deliberately buggy fixture for tmx_lint's self-test: every rule must
// fire on this file, and nothing else may (one ctest per rule, plus one
// that pins the total finding count). This file is never compiled.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <vector>

struct Node {
  int value;
  Node* next;
};

void fixture(Stm& stm, std::atomic<int>& counter, Node* head, int* cell,
             SpinLock& lock, std::vector<int>& outside) {
  stm.atomically([&](stm::Tx& tx) {
    void* p = malloc(32);             // raw-alloc
    void* q = std::malloc(16);        // raw-alloc (std-qualified)
    Node* n = new Node;               // raw-new-delete
    delete head->next;                // raw-new-delete
    *cell = 7;                        // naked-store (deref)
    head->value = 1;                  // naked-store (member)
    head[1].value = 2;                // (member of indexed lvalue)
    counter.fetch_add(1);             // atomic-in-tx
    std::vector<int> scratch;         // raii-in-tx (container)
    const std::unique_ptr<Node> owned(n);  // raii-in-tx (smart pointer)
    sim::SpinGuard g(lock);           // raii-in-tx (*Guard)
    // Not RAII locals: a reference, a pointer, a static, a nested type.
    std::vector<int>& alias = outside;
    std::vector<int>* where = &outside;
    static std::vector<int> shared;
    std::vector<int>::size_type count = alias.size();
    tx.store(&head->value, static_cast<int>(count));
    free(p);                          // raw-alloc
    std::free(q);                     // raw-alloc
    (void)where;
  });
}
